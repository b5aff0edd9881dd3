// table2_tcp: the paper's Table 2 mix over real loopback TCP, fault-free.
//
// 1525 topics (10/10/500/500/500/5 over categories 0-5, 15.4k msgs/s) in
// the paper's proxy fan-outs of 10/50/1 topics.  Each proxy is a
// PublisherEngine with a seeded phase in its period: the proxies of one
// period are dealt, in a seeded order, onto kPhaseSlots evenly spaced
// slots, so each 100 ms period carries three bursts
// of 500 messages.  The proxies are multiplexed onto one open-loop
// generator thread with one TcpBus endpoint (one connection to the
// Primary).  A batch is stamped with its due time, so a stalled generator
// shows as latency and as gen.lag_p99_us.  This is the deployment path:
// transport, CRC gate, event channel, shard ring, EDF lanes, selective
// replication and pruning of categories 2 and 5, and the subscribers.
//
// The latency tail is set by how fast the system drains a burst, not by
// short host stalls: with evenly spread proxies the p99 sat at 1.5 ms and
// moved 1.5-6 ms from run to run with the number of vCPU stalls in the
// window.  One broker shard and one generator thread keep the busy threads
// below the 4 vCPUs the figures were taken on.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.hpp"
#include "broker/publisher_engine.hpp"
#include "sim/experiment.hpp"
#include "sim/workload.hpp"

namespace frame::perf {

namespace {

constexpr std::size_t kTopics = 1525;
constexpr std::size_t kShards = 1;
constexpr std::size_t kGeneratorThreads = 1;
constexpr std::size_t kPhaseSlots = 3;
constexpr Duration kWarmup = seconds(1);

struct Proxy {
  std::unique_ptr<PublisherEngine> engine;
  TimePoint next_due = 0;
};

/// One open-loop generator thread: its proxies' batches go out at their
/// due times over one bus endpoint, whatever the system does meanwhile.
class Generator {
 public:
  Generator(Bus& bus, const MonotonicClock& clock, NodeId node, bool traced)
      : bus_(bus), clock_(clock), node_(node), traced_(traced) {
    bus_.register_endpoint(node_, [](NodeId, std::vector<std::uint8_t>) {});
  }
  ~Generator() { join(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void add_proxy(std::vector<TopicSpec> topics, Duration period,
                 Duration phase) {
    Proxy proxy;
    proxy.engine = std::make_unique<PublisherEngine>(node_, std::move(topics),
                                                     period, kPayloadBytes);
    proxy.next_due = phase;  // relative until start()
    proxies_.push_back(std::move(proxy));
  }

  /// Starts publishing at t0; no batch due at or after `stop_at` is sent.
  void start(TimePoint t0, TimePoint stop_at) {
    for (auto& proxy : proxies_) proxy.next_due += t0;
    stop_at_ = stop_at;
    thread_ = std::thread([this] { loop(); });
  }
  void stop() { stop_.store(true, std::memory_order_release); }
  void join() {
    stop();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after join().
  const std::vector<double>& lag_us() const { return lag_us_; }
  std::uint64_t backpressured() const { return backpressured_; }
  std::uint64_t send_failures() const { return send_failures_; }
  void last_seqs(std::vector<SeqNo>& out) const {
    for (const auto& proxy : proxies_) {
      for (const auto& spec : proxy.engine->topics()) {
        out[spec.id] = proxy.engine->last_seq(spec.id);
      }
    }
  }

 private:
  void loop() {
    tighten_timer_slack();
    while (!stop_.load(std::memory_order_acquire)) {
      Proxy* next = &proxies_.front();
      for (auto& proxy : proxies_) {
        if (proxy.next_due < next->next_due) next = &proxy;
      }
      const TimePoint due = next->next_due;
      if (due >= stop_at_) return;
      // Sleep in short steps so stop() is noticed during setup repeats.
      while (clock_.now() < due && !stop_.load(std::memory_order_acquire)) {
        sleep_until(clock_, std::min(due, clock_.now() + milliseconds(5)));
      }
      if (stop_.load(std::memory_order_acquire)) return;
      lag_us_.push_back(to_micros(clock_.now() - due));
      for (const Message& msg : next->engine->create_batch(due)) {
        std::vector<std::uint8_t> frame =
            encode_message_frame(WireType::kPublish, msg);
        if (traced_ && (msg.seq & kSpanMask) == 0) {
          Span span;
          span.id = message_id(msg.topic, msg.seq);
          span.start = due;
          span.end = clock_.now();
          span.kind = SpanKind::kGenerate;
          SpanLog::instance().record(span);
        }
        const Status sent = bus_.try_send(node_, kPrimaryNode, std::move(frame));
        if (sent.code() == StatusCode::kCapacity) {
          ++backpressured_;
        } else if (!sent.is_ok()) {
          ++send_failures_;
        }
      }
      next->next_due += next->engine->period();
    }
  }

  Bus& bus_;
  const MonotonicClock& clock_;
  NodeId node_;
  bool traced_;
  std::vector<Proxy> proxies_;
  TimePoint stop_at_ = kTimeNever;
  std::atomic<bool> stop_{false};
  std::vector<double> lag_us_;
  std::uint64_t backpressured_ = 0;
  std::uint64_t send_failures_ = 0;
  std::thread thread_;
};

/// One built-and-started deployment with its generators.
struct Deployment {
  std::unique_ptr<Topology> topology;
  std::vector<std::unique_ptr<Generator>> generators;
  TimePoint t0 = 0;  ///< when the generators started

  ~Deployment() { stop(); }
  void stop() {
    for (auto& gen : generators) gen->join();
    if (topology) topology->stop();
  }
};

}  // namespace

PhaseResult run_table2_tcp(const RunOptions& options, bool traced) {
  PhaseResult result;
  const TimingParams timing = sim::paper_timing_params();
  const sim::Workload workload = sim::make_table2_workload(kTopics, timing);
  if (const std::string why = admission_failures(workload.topics, timing);
      !why.empty()) {
    result.fail("admission: " + why);
    return result;
  }

  const MonotonicClock clock;
  const std::size_t threads = kGeneratorThreads;
  // Seeded phases, drawn once so every setup repeat publishes the same
  // schedule.  The proxies of one period are shuffled, grouped by category
  // and dealt onto evenly spaced slots, so every seed puts the same number
  // of proxies of each category in each burst and the latency figures do
  // not hinge on which proxies the seed lets collide.
  SeededStream rng(options.seed);
  std::vector<Duration> phases(workload.proxies.size(), 0);
  std::map<Duration, std::vector<std::size_t>> by_period;
  for (std::size_t i = 0; i < workload.proxies.size(); ++i) {
    by_period[workload.proxies[i].period].push_back(i);
  }
  const auto category = [&](std::size_t proxy) {
    return workload.category[workload.proxies[proxy].topics.front()];
  };
  for (auto& [period, members] : by_period) {
    for (std::size_t k = members.size() - 1; k > 0; --k) {
      std::swap(members[k], members[rng.below(k + 1)]);
    }
    std::stable_sort(members.begin(), members.end(),
                     [&](std::size_t a, std::size_t b) {
                       return category(a) < category(b);
                     });
    const std::size_t slots = std::min(members.size(), kPhaseSlots);
    for (std::size_t k = 0; k < members.size(); ++k) {
      phases[members[k]] = period * static_cast<Duration>(k % slots) /
                           static_cast<Duration>(slots);
    }
  }

  const Duration measured = seconds(options.seconds);
  const auto build = [&] {
    auto d = std::make_unique<Deployment>();
    d->topology = std::make_unique<Topology>(clock, workload.topics, timing,
                                             kShards, traced);
    for (std::size_t g = 0; g < threads; ++g) {
      d->generators.push_back(std::make_unique<Generator>(
          d->topology->bus(), clock,
          kFirstPublisherNode + static_cast<NodeId>(g), traced));
    }
    for (std::size_t i = 0; i < workload.proxies.size(); ++i) {
      const auto& proxy = workload.proxies[i];
      std::vector<TopicSpec> specs;
      for (const TopicId id : proxy.topics) specs.push_back(workload.topics[id]);
      d->generators[i % threads]->add_proxy(std::move(specs), proxy.period,
                                            phases[i]);
    }
    d->topology->start();
    d->t0 = clock.now();
    for (auto& gen : d->generators) gen->start(d->t0, d->t0 + kWarmup + measured);
    return d;
  };
  const Setup<Deployment> setup = measure_setup(
      clock, build, [](const Deployment& d) { return d.topology->delivered(); });
  if (!setup.live) {
    result.fail("setup: no delivery within the set-up timeout");
    return result;
  }
  Deployment& live = *setup.live;

  const TimePoint window_start = live.t0 + kWarmup;
  const TimePoint window_end = window_start + measured;
  Topology& topo = *live.topology;
  WindowMeter meter(clock, window_start, measured,
                    [&] { return topo.delivered(); });
  meter.join();
  for (auto& gen : live.generators) gen->join();
  // Drain: the longest deadline is 500 ms (category 5).
  wait_settled(clock, [&] { return topo.delivered(); }, milliseconds(600),
               seconds(3), milliseconds(200));
  // Read before stopping: once the Primary stops answering polls, the
  // Backup rightly promotes itself.
  const bool promoted = topo.broker(kBackupNode).is_primary();
  topo.stop();

  std::vector<SeqNo> last_seq(workload.topics.size(), 0);
  LayerInputs layers;
  std::uint64_t send_failures = 0;
  for (const auto& gen : live.generators) {
    gen->last_seqs(last_seq);
    layers.gen_lag_us.insert(layers.gen_lag_us.end(), gen->lag_us().begin(),
                             gen->lag_us().end());
    layers.gen_backpressured += gen->backpressured();
    send_failures += gen->send_failures();
  }
  const Accounting acc =
      account_deliveries(topo, last_seq, window_start, window_end);
  check_accounting(result, acc);
  add_accounting_metrics(result, acc, meter, setup.median_s);
  result.failed = acc.lost;

  // Output checks: no failover without a crash, every topic keeps its Li
  // budget and every publish reaches the transport.
  RuntimeBroker& primary = topo.broker(kPrimaryNode);
  RuntimeBroker& backup = topo.broker(kBackupNode);
  // A Backup that promotes itself here saw no poll reply for kPollMisses
  // poll periods: a detector false positive, which this fault-free run
  // must not see.
  layers.false_promotions = promoted ? 1 : 0;
  if (promoted) result.fail("the Backup promoted itself with no crash injected");
  if (acc.li_violations != 0) {
    result.fail(std::to_string(acc.li_violations) +
                " topics exceeded their Li loss budget");
  }
  if (send_failures != 0) {
    result.fail(std::to_string(send_failures) + " publishes were refused");
  }
  if (primary.corrupt_frames() + backup.corrupt_frames() != 0) {
    result.fail("brokers rejected corrupt frames");
  }

  result.provenance = {
      {"transport", "tcp-loopback"},
      {"topics", std::to_string(workload.topics.size())},
      {"offered_msgs_per_s", std::to_string(workload.message_rate())},
      {"generator_threads", std::to_string(threads)},
      {"primary_shards", std::to_string(primary.shard_count())},
      {"backup_shards", std::to_string(backup.shard_count())},
  };

  if (traced) {
    SpanBus* bus = topo.span_bus();
    layers.frames = bus->frames();
    layers.bytes = bus->bytes();
    layers.try_sends = bus->try_sends();
    layers.capacity_refusals = bus->capacity_refusals();
    layers.inbox_backpressure = primary.inbox_backpressure();
    layers.duplicates_suppressed =
        primary.duplicates_suppressed() + backup.duplicates_suppressed();
    layers.primary = primary.primary_stats();
    layers.replicas = backup.backup_stats().replicas_received;
    add_layer_metrics(result, layers, acc);
    const std::vector<Span> spans = SpanLog::instance().take();
    add_span_metrics(result, spans, result.e2e_value("e2e_latency_p50_us"));
    dump_spans(spans, options);
    add_replay_metrics(result, bus->captured_publish_frames(), workload.topics,
                       timing);
  }
  return result;
}

}  // namespace frame::perf
