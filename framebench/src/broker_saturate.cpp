// broker_saturate: the Primary hot path at capacity, with no transport.
//
// 4096 loss-tolerant topics (T = 1 ms, D = 20 ms, L = 100, N = 0, edge)
// that Proposition 1 never replicates.  One closed-loop generator thread
// keeps between kWindow / 2 and kWindow messages in flight and pushes them
// round-robin in a seeded topic order straight into the broker's registered
// endpoint handler, over
// a benchmark-owned counting Bus that stands in for the subscribers.  A
// pass over all topics takes at least T, so every topic's inter-arrival
// stays >= Ti.  The broker runs one shard with one lane, so the generator
// and the lane take two cores and leave the rest of a 4-vCPU host idle:
// with more threads the figures swing with the scheduler.  Loaded: CRC
// gate, event channel, shard ring, decode, admission, EDF, dispatch and
// encode.  Skipped: TCP and replication.
#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "broker/publisher_engine.hpp"
#include "core/differentiation.hpp"
#include "sim/experiment.hpp"

namespace frame::perf {

namespace {

constexpr std::size_t kTopics = 4096;
constexpr Duration kPeriod = milliseconds(1);
constexpr Duration kDeadline = milliseconds(20);
constexpr std::uint32_t kLossTolerance = 100;
constexpr std::size_t kShards = 1;
/// Most messages in flight.  Half of it (256 messages, about 0.6 ms of lane
/// work) stays queued while the generator naps.  With 128 in flight a nap
/// that woke late let the lane run dry, and goodput and CPU per message
/// then moved with the host's wake-up latency.  It stays below the shard
/// ring's 1024 slots, so the generator never waits on the ring.
constexpr std::uint64_t kWindow = 512;
constexpr Duration kWarmup = milliseconds(500);
/// Every 8th seq of a topic is fully checked (CRC, decode, payload) and
/// its latency sampled; span recording keeps every 16th.
constexpr SeqNo kCheckMask = 7;
constexpr SeqNo kSaturateSpanMask = 15;

/// Per-thread tallies of the counting sink; each lane thread writes only
/// its own slot, read after the broker stopped.
struct alignas(64) SinkLane {
  std::uint64_t duplicates = 0;
  std::uint64_t invalid = 0;
  std::uint64_t late = 0;
  std::vector<std::pair<TimePoint, Duration>> samples;  ///< (tc, latency)
};

/// The subscribers of broker_saturate: a Bus whose only endpoint is the
/// broker.  Every delivery is checked and counted in a per-topic bitmap,
/// so each created (topic, seq) ends delivered, duplicated or lost.
class CountingBus final : public Bus {
 public:
  static constexpr std::size_t kMaxLanes = 64;

  CountingBus(const MonotonicClock& clock, std::size_t seq_capacity)
      : clock_(clock),
        words_per_topic_((seq_capacity + 63) / 64),
        seen_(kTopics * words_per_topic_) {}

  void register_endpoint(NodeId node, Handler handler) override {
    if (node == kPrimaryNode) broker_ = std::move(handler);
  }
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> frame) override {
    (void)try_send(from, to, std::move(frame));
  }
  Status try_send(NodeId, NodeId to, std::vector<std::uint8_t> frame) override {
    if (to == kSubscriberNodes[0] || to == kSubscriberNodes[1]) {
      accept(to, frame);
    }
    return Status::ok();
  }
  void crash(NodeId) override {}
  void restore(NodeId) override {}
  bool crashed(NodeId) const override { return false; }
  void shutdown() override {}

  /// The broker's endpoint handler: the generator calls it directly.
  const Handler& broker_handler() const { return broker_; }

  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

  /// Valid once the broker has stopped.
  const std::array<SinkLane, kMaxLanes>& lanes() const { return lanes_; }
  int lanes_used() const { return lanes_used_.load(); }
  bool seen(TopicId topic, SeqNo seq) const {
    const std::size_t word = topic * words_per_topic_ + (seq - 1) / 64;
    return (seen_[word].load(std::memory_order_relaxed) >> ((seq - 1) % 64)) &
           1u;
  }

 private:
  SinkLane& lane() {
    thread_local std::uint64_t owner = 0;
    thread_local SinkLane* slot = nullptr;
    if (owner != id_) {
      const int index = lanes_used_.fetch_add(1, std::memory_order_acq_rel);
      slot = &lanes_[std::min<int>(index, kMaxLanes - 1)];
      slot->samples.reserve(1 << 16);
      owner = id_;
    }
    return *slot;
  }

  void accept(NodeId to, const std::vector<std::uint8_t>& frame) {
    const TimePoint now = clock_.now();
    SinkLane& sink = lane();
    const FramePeek peek = peek_frame(frame);
    if (peek.type != WireType::kDeliver || !peek.message ||
        peek.topic >= kTopics || peek.seq == 0 ||
        peek.seq > words_per_topic_ * 64 ||
        to != kSubscriberNodes[peek.topic % 2]) {
      ++sink.invalid;
      return;
    }
    const Duration latency = now - peek.created_at;
    if (latency > kDeadline) ++sink.late;
    if ((peek.seq & kCheckMask) == 0) {
      const auto msg = decode_message_frame(frame);
      bool intact = msg.has_value() && msg->payload_size == kPayloadBytes;
      for (std::size_t i = 0; intact && i < kPayloadBytes; ++i) {
        intact = msg->payload[i] == static_cast<std::byte>((peek.seq + i) & 0xff);
      }
      if (!intact) {
        ++sink.invalid;
        return;
      }
      sink.samples.emplace_back(peek.created_at, latency);
    }
    const std::size_t word =
        peek.topic * words_per_topic_ + (peek.seq - 1) / 64;
    const std::uint64_t bit = 1ull << ((peek.seq - 1) % 64);
    if (seen_[word].fetch_or(bit, std::memory_order_relaxed) & bit) {
      ++sink.duplicates;
      return;
    }
    delivered_.fetch_add(1, std::memory_order_release);
  }

  static inline std::atomic<std::uint64_t> next_id_{1};
  const std::uint64_t id_ = next_id_.fetch_add(1);
  const MonotonicClock& clock_;
  Handler broker_;
  std::size_t words_per_topic_;
  std::vector<std::atomic<std::uint64_t>> seen_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<int> lanes_used_{0};
  std::array<SinkLane, kMaxLanes> lanes_;
};

/// One broker deployment over the counting bus, plus its generator.
class Deployment {
 public:
  Deployment(const MonotonicClock& clock, const std::vector<TopicSpec>& topics,
             std::vector<TopicSpec> order, std::size_t seq_capacity,
             bool traced)
      : clock_(clock),
        engine_(kFirstPublisherNode, std::move(order), kPeriod, kPayloadBytes),
        traced_(traced),
        seq_capacity_(seq_capacity),
        last_seq_(kTopics, 0) {
    auto counting = std::make_unique<CountingBus>(clock, seq_capacity);
    counting_ = counting.get();
    if (traced) {
      auto spans =
          std::make_unique<SpanBus>(std::move(counting), clock,
                                    kSaturateSpanMask);
      span_bus_ = spans.get();
      bus_ = std::move(spans);
    } else {
      bus_ = std::move(counting);
    }
    RuntimeBroker::Options options;
    options.node = kPrimaryNode;
    options.peer = kInvalidNode;  // no Backup: no detector, no replication
    options.start_as_primary = true;
    options.broker = broker_config(ConfigName::kFrame);
    options.shards = kShards;
    options.delivery_threads = kShards;
    broker_ = std::make_unique<RuntimeBroker>(*bus_, clock_, options, topics,
                                              sim::paper_timing_params());
    for (const auto& spec : topics) {
      broker_->subscribe(spec.id, kSubscriberNodes[spec.id % 2]);
    }
  }
  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void start() {
    broker_->start();
    generator_ = std::thread([this] { generate(); });
  }
  /// Stops generating, waits for in-flight messages, stops the broker.
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (generator_.joinable()) generator_.join();
    const TimePoint deadline = clock_.now() + seconds(2);
    while (counting_->delivered() < sent() && clock_.now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    broker_->stop();
  }

  CountingBus& counting() { return *counting_; }
  SpanBus* span_bus() { return span_bus_; }
  RuntimeBroker& broker() { return *broker_; }
  std::uint64_t sent() const { return sent_.load(std::memory_order_acquire); }
  /// Last seq sent per topic; valid after stop().
  const std::vector<SeqNo>& last_seq() const { return last_seq_; }
  bool seq_limit_hit() const { return seq_limit_hit_.load(); }

 private:
  void generate() {
    tighten_timer_slack();
    const Bus::Handler& deliver = counting_->broker_handler();
    std::uint64_t sent = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const TimePoint pass_start = clock_.now();
      std::vector<Message> batch = engine_.create_batch(pass_start);
      for (Message& msg : batch) {
        // Closed loop: once the window is full, nap until half of it has
        // been delivered.  The generator naps rather than spins, so
        // cpu_us_per_msg counts work, not waiting, and the half window
        // still queued keeps the lane busy through a late wake-up.
        if (sent - counting_->delivered() >= kWindow) {
          while (sent - counting_->delivered() > kWindow / 2) {
            if (stop_.load(std::memory_order_acquire)) return;
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          }
        }
        if (msg.seq > seq_capacity_) {
          seq_limit_hit_.store(true);
          return;
        }
        msg.created_at = clock_.now();
        std::vector<std::uint8_t> frame =
            encode_message_frame(WireType::kPublish, msg);
        if (traced_ && (msg.seq & kSaturateSpanMask) == 0) {
          Span span;
          span.id = message_id(msg.topic, msg.seq);
          span.start = msg.created_at;
          span.end = clock_.now();
          span.kind = SpanKind::kGenerate;
          SpanLog::instance().record(span);
        }
        deliver(kFirstPublisherNode, std::move(frame));
        last_seq_[msg.topic] = msg.seq;
        sent_.store(++sent, std::memory_order_release);
      }
      // Keep every topic's inter-arrival >= Ti.
      sleep_until(clock_, pass_start + kPeriod);
    }
  }

  const MonotonicClock& clock_;
  PublisherEngine engine_;
  std::unique_ptr<Bus> bus_;
  CountingBus* counting_ = nullptr;
  SpanBus* span_bus_ = nullptr;
  std::unique_ptr<RuntimeBroker> broker_;
  bool traced_;
  std::uint64_t seq_capacity_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<bool> seq_limit_hit_{false};
  std::vector<SeqNo> last_seq_;
  std::thread generator_;
};

}  // namespace

PhaseResult run_broker_saturate(const RunOptions& options, bool traced) {
  PhaseResult result;
  const TimingParams timing = sim::paper_timing_params();
  std::vector<TopicSpec> topics;
  for (std::size_t i = 0; i < kTopics; ++i) {
    topics.push_back(TopicSpec{static_cast<TopicId>(i), kPeriod, kDeadline,
                               kLossTolerance, 0, Destination::kEdge});
  }
  if (const std::string why = admission_failures(topics, timing); !why.empty()) {
    result.fail("admission: " + why);
    return result;
  }
  if (!replication_set(topics, timing).empty()) {
    result.fail("admission: Proposition 1 replicates some topics");
    return result;
  }

  // Seeded round-robin order.
  SeededStream rng(options.seed);
  std::vector<TopicSpec> order = topics;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  const Duration measured = seconds(options.seconds);
  // Seqs per topic the sink can track: the Ti pacing caps a topic at one
  // message per ms, plus slack for setup.
  const std::size_t seq_capacity = static_cast<std::size_t>(
      (measured + kWarmup + seconds(5)) / kPeriod);

  const MonotonicClock clock;
  const Setup<Deployment> setup = measure_setup(
      clock,
      [&] {
        auto d = std::make_unique<Deployment>(clock, topics, order,
                                              seq_capacity, traced);
        d->start();
        return d;
      },
      [](Deployment& d) { return d.counting().delivered(); });
  if (!setup.live) {
    result.fail("setup: no delivery within the set-up timeout");
    return result;
  }

  Deployment& d = *setup.live;
  CountingBus& sink = d.counting();
  const TimePoint window_start = clock.now() + kWarmup;
  const TimePoint window_end = window_start + measured;
  WindowMeter meter(clock, window_start, measured,
                    [&] { return sink.delivered(); });
  meter.join();
  d.stop();

  // Accounting: every (topic, seq) sent is delivered once, duplicated or
  // lost; loss runs are checked against Li.
  Accounting acc;
  acc.topics = kTopics;
  acc.created = d.sent();
  acc.delivered = sink.delivered();
  std::uint64_t invalid = 0;
  std::uint64_t late = 0;
  for (int i = 0; i < sink.lanes_used(); ++i) {
    const SinkLane& lane = sink.lanes()[i];
    acc.duplicates += lane.duplicates;
    invalid += lane.invalid;
    late += lane.late;
    for (const auto& [tc, latency] : lane.samples) {
      acc.add_latency(tc, latency, window_start, window_end);
    }
  }
  acc.lost = acc.created - std::min(acc.created, acc.delivered);
  acc.on_time = acc.delivered - std::min(acc.delivered, late);
  if (acc.lost != 0) {
    for (TopicId t = 0; t < kTopics; ++t) {
      std::uint64_t run = 0, worst = 0, lost = 0;
      for (SeqNo s = 1; s <= d.last_seq()[t]; ++s) {
        run = sink.seen(t, s) ? 0 : run + 1;
        lost += run != 0 ? 1 : 0;
        worst = std::max(worst, run);
      }
      if (worst > kLossTolerance) {
        ++acc.li_violations;
        acc.li_violation_losses += lost;
      }
    }
  }
  check_accounting(result, acc);
  add_accounting_metrics(result, acc, meter, setup.median_s);
  result.failed = acc.lost + acc.duplicates + invalid;

  const PrimaryEngine::Stats stats = d.broker().primary_stats();
  if (acc.lost != 0) result.fail(std::to_string(acc.lost) + " messages lost");
  if (acc.duplicates != 0) {
    result.fail(std::to_string(acc.duplicates) + " duplicate deliveries");
  }
  if (invalid != 0) result.fail(std::to_string(invalid) + " invalid deliveries");
  if (stats.stale_jobs != 0 || stats.overwritten_undelivered != 0) {
    result.fail("stale jobs " + std::to_string(stats.stale_jobs) +
                ", overwritten " +
                std::to_string(stats.overwritten_undelivered));
  }
  if (d.seq_limit_hit()) result.fail("sink sequence capacity exceeded");

  result.provenance = {
      {"transport", "none (counting bus, direct handler calls)"},
      {"topics", std::to_string(kTopics)},
      {"window_in_flight", std::to_string(kWindow)},
      {"generator_threads", "1"},
      {"primary_shards", std::to_string(d.broker().shard_count())},
      {"lanes", std::to_string(kShards)},
  };

  if (traced) {
    LayerInputs layers;
    SpanBus* bus = d.span_bus();
    layers.frames = bus->frames();
    layers.bytes = bus->bytes();
    layers.try_sends = bus->try_sends();
    layers.capacity_refusals = bus->capacity_refusals();
    layers.inbox_backpressure = d.broker().inbox_backpressure();
    layers.duplicates_suppressed = d.broker().duplicates_suppressed();
    layers.primary = stats;
    add_layer_metrics(result, layers, acc);
    const std::vector<Span> spans = SpanLog::instance().take();
    add_span_metrics(result, spans, result.e2e_value("e2e_latency_p50_us"));
    dump_spans(spans, options);
    // Replay on frames in the generator's seeded order.
    std::vector<std::vector<std::uint8_t>> frames;
    PublisherEngine replay(kFirstPublisherNode, order, kPeriod, kPayloadBytes);
    for (const Message& msg : replay.create_batch(0)) {
      frames.push_back(encode_message_frame(WireType::kPublish, msg));
    }
    add_replay_metrics(result, frames, topics, timing);
  }
  return result;
}

}  // namespace frame::perf
