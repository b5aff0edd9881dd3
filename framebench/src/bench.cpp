#include "bench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "broker/config.hpp"
#include "broker/primary_engine.hpp"
#include "core/differentiation.hpp"
#include "core/job_queue.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace frame::perf {

// ---------------------------------------------------------------------------
// PhaseResult
// ---------------------------------------------------------------------------

void PhaseResult::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

void PhaseResult::add_e2e(std::string name, double value, std::string unit) {
  e2e.push_back(Metric{std::move(name), value, std::move(unit)});
}

void PhaseResult::add_layer(std::string name, double value, std::string unit) {
  layers.push_back(Metric{std::move(name), value, std::move(unit)});
}

double PhaseResult::e2e_value(std::string_view name) const {
  for (const auto& m : e2e) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

void sleep_until(const MonotonicClock& clock, TimePoint deadline) {
  for (TimePoint now = clock.now(); now < deadline; now = clock.now()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
}

void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

std::uint64_t SeededStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string admission_failures(const std::vector<TopicSpec>& topics,
                               const TimingParams& timing) {
  const auto failures = admit_all(topics, timing);
  std::string out;
  for (std::size_t i = 0; i < failures.size() && i < 5; ++i) {
    out += "topic " + std::to_string(failures[i].topic) + ": " +
           failures[i].reason + "; ";
  }
  if (failures.size() > 5) {
    out += std::to_string(failures.size() - 5) + " more";
  }
  return out;
}

namespace {

template <typename T>
T read_le(const std::vector<std::uint8_t>& frame, std::size_t offset) {
  T v{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(frame[offset + i]) << (8 * i)));
  }
  return v;
}

bool carries_message(WireType type) {
  return type == WireType::kPublish || type == WireType::kDeliver ||
         type == WireType::kReplicate || type == WireType::kResend;
}

}  // namespace

FramePeek peek_frame(const std::vector<std::uint8_t>& frame) {
  FramePeek peek;
  if (frame.empty()) return peek;
  peek.type = static_cast<WireType>(frame[0]);
  const bool with_seq =
      carries_message(peek.type) || peek.type == WireType::kPrune;
  if (!with_seq || frame.size() < 13) return peek;
  peek.message = true;
  peek.topic = read_le<std::uint32_t>(frame, 1);
  peek.seq = read_le<std::uint64_t>(frame, 5);
  if (carries_message(peek.type) && frame.size() >= 37) {
    peek.created_at = static_cast<TimePoint>(read_le<std::uint64_t>(frame, 13));
    peek.broker_arrival =
        static_cast<TimePoint>(read_le<std::uint64_t>(frame, 21));
    peek.dispatched_at =
        static_cast<TimePoint>(read_le<std::uint64_t>(frame, 29));
  }
  return peek;
}

// ---------------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------------

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGenerate: return "generate";
    case SpanKind::kPublishSend: return "publish_send";
    case SpanKind::kIntake: return "broker_intake";
    case SpanKind::kDeliverSend: return "deliver_send";
    case SpanKind::kReplicaSend: return "replica_send";
    case SpanKind::kBackupHandle: return "backup_handle";
    case SpanKind::kSubscriberHandle: return "subscriber_handle";
  }
  return "unknown";
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const Span& span) {
  // One buffer per thread for the process lifetime; take() empties them
  // only while no recording thread runs.
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffer = buffers_.back().get();
    buffer->reserve(1 << 12);
  }
  buffer->push_back(span);
}

std::vector<Span> SpanLog::take() {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  for (auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

bool SpanLog::write(const std::vector<Span>& spans, const std::string& path,
                    std::size_t max_lines) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# kind\ttopic\tseq\tstart_ns\tend_ns\ttc\ttp\ttd\n");
  const std::size_t n = std::min(spans.size(), max_lines);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%s\t%llu\t%llu\t%lld\t%lld\t%lld\t%lld\t%lld\n",
                 to_string(s.kind),
                 static_cast<unsigned long long>(s.id >> 40),
                 static_cast<unsigned long long>(s.id & ((1ull << 40) - 1)),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.created_at),
                 static_cast<long long>(s.broker_arrival),
                 static_cast<long long>(s.dispatched_at));
  }
  return std::fclose(out) == 0;
}

void dump_spans(const std::vector<Span>& spans, const RunOptions& options) {
  if (options.span_dir.empty()) return;
  // One file per workload, replaced by each traced run and capped, so
  // repeated runs cannot fill the disk.
  const std::string path = options.span_dir + "/" + options.workload + ".tsv";
  if (!SpanLog::write(spans, path, 200'000)) {
    std::fprintf(stderr, "framebench: could not write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// SpanBus
// ---------------------------------------------------------------------------

NodeClass node_class(NodeId node) {
  if (node == kPrimaryNode || node == kBackupNode) return NodeClass::kBroker;
  if (node >= kFirstPublisherNode) return NodeClass::kPublisher;
  return NodeClass::kSubscriber;
}

namespace {

constexpr std::size_t kCaptureFrames = 4096;

/// The span a frame handled at a node of class `cls` belongs to.
bool handle_kind(NodeClass cls, WireType type, SpanKind* kind) {
  if (cls == NodeClass::kBroker) {
    if (type == WireType::kPublish || type == WireType::kResend) {
      *kind = SpanKind::kIntake;
      return true;
    }
    if (type == WireType::kReplicate || type == WireType::kPrune) {
      *kind = SpanKind::kBackupHandle;
      return true;
    }
  }
  if (cls == NodeClass::kSubscriber && type == WireType::kDeliver) {
    *kind = SpanKind::kSubscriberHandle;
    return true;
  }
  return false;
}

bool send_kind(NodeClass cls, WireType type, SpanKind* kind) {
  if (cls == NodeClass::kPublisher &&
      (type == WireType::kPublish || type == WireType::kResend)) {
    *kind = SpanKind::kPublishSend;
    return true;
  }
  if (cls == NodeClass::kBroker) {
    if (type == WireType::kDeliver) {
      *kind = SpanKind::kDeliverSend;
      return true;
    }
    if (type == WireType::kReplicate || type == WireType::kPrune) {
      *kind = SpanKind::kReplicaSend;
      return true;
    }
  }
  return false;
}

}  // namespace

SpanBus::SpanBus(std::unique_ptr<Bus> inner, const MonotonicClock& clock,
                 SeqNo sample_mask)
    : inner_(std::move(inner)), clock_(clock), sample_mask_(sample_mask) {
  captured_.reserve(kCaptureFrames);
}

void SpanBus::register_endpoint(NodeId node, Handler handler) {
  const NodeClass cls = node_class(node);
  inner_->register_endpoint(
      node, [this, cls, handler = std::move(handler)](
                NodeId from, std::vector<std::uint8_t> frame) {
        const FramePeek peek = peek_frame(frame);
        SpanKind kind{};
        const bool spanned = peek.message && (peek.seq & sample_mask_) == 0 &&
                             handle_kind(cls, peek.type, &kind);
        const TimePoint start = clock_.now();
        handler(from, std::move(frame));
        if (!spanned) return;
        Span span;
        span.id = message_id(peek.topic, peek.seq);
        span.start = start;
        span.end = clock_.now();
        span.kind = kind;
        SpanLog::instance().record(span);
      });
}

void SpanBus::send(NodeId from, NodeId to, std::vector<std::uint8_t> frame) {
  (void)timed_send(from, to, std::move(frame));
}

Status SpanBus::try_send(NodeId from, NodeId to,
                         std::vector<std::uint8_t> frame) {
  return timed_send(from, to, std::move(frame));
}

Status SpanBus::timed_send(NodeId from, NodeId to,
                           std::vector<std::uint8_t> frame) {
  const FramePeek peek = peek_frame(frame);
  frames_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  try_sends_.fetch_add(1, std::memory_order_relaxed);
  if (peek.type == WireType::kPublish &&
      captured_count_.load(std::memory_order_relaxed) < kCaptureFrames) {
    std::lock_guard lock(capture_mutex_);
    if (captured_.size() < kCaptureFrames) {
      captured_.push_back(frame);
      captured_count_.store(captured_.size(), std::memory_order_relaxed);
    }
  }
  SpanKind kind{};
  const bool spanned = peek.message && (peek.seq & sample_mask_) == 0 &&
                       send_kind(node_class(from), peek.type, &kind);
  const TimePoint start = clock_.now();
  const Status status = inner_->try_send(from, to, std::move(frame));
  const TimePoint end = clock_.now();
  if (status.code() == StatusCode::kCapacity) {
    capacity_.fetch_add(1, std::memory_order_relaxed);
  }
  if (spanned) {
    Span span;
    span.id = message_id(peek.topic, peek.seq);
    span.start = start;
    span.end = end;
    span.kind = kind;
    if (kind == SpanKind::kDeliverSend) {
      span.created_at = peek.created_at;
      span.broker_arrival = peek.broker_arrival;
      span.dispatched_at = peek.dispatched_at;
    }
    SpanLog::instance().record(span);
  }
  return status;
}

std::vector<std::vector<std::uint8_t>> SpanBus::captured_publish_frames()
    const {
  std::lock_guard lock(capture_mutex_);
  return captured_;
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

Topology::Topology(const MonotonicClock& clock, std::vector<TopicSpec> topics,
                   TimingParams timing, std::size_t shards, bool traced)
    : clock_(clock), topics_(std::move(topics)) {
  auto tcp = std::make_unique<TcpBus>();
  // EdgeSystem's default is 250 ms.  TcpBus connects while holding its
  // bus-wide mutex, so one attempt that hangs until that timeout (seen
  // after a rejoin) stalls every node's liveness polls past the detection
  // threshold: most failover_cycles runs then saw spurious failovers.  A
  // loopback connect takes well under 20 ms.
  tcp->set_connect_timeout(kConnectTimeout);
  if (traced) {
    auto spans = std::make_unique<SpanBus>(std::move(tcp), clock_, kSpanMask);
    span_bus_ = spans.get();
    bus_ = std::move(spans);
  } else {
    bus_ = std::move(tcp);
  }

  RuntimeBroker::Options primary;
  primary.node = kPrimaryNode;
  primary.peer = kBackupNode;
  primary.start_as_primary = true;
  primary.broker = broker_config(ConfigName::kFrame);
  primary.poll_period = kPollPeriod;
  primary.poll_miss_threshold = kPollMisses;
  primary.shards = shards;
  // One lane per shard (EdgeSystem runs three), so the busy threads stay
  // fewer than the vCPUs.
  primary.delivery_threads = shards;
  primary_ = std::make_unique<RuntimeBroker>(*bus_, clock_, primary, topics_,
                                             timing);
  RuntimeBroker::Options backup = primary;
  backup.node = kBackupNode;
  backup.peer = kPrimaryNode;
  backup.start_as_primary = false;
  backup_ = std::make_unique<RuntimeBroker>(*bus_, clock_, backup, topics_,
                                            timing);

  for (const NodeId node : kSubscriberNodes) {
    subscribers_.push_back(
        std::make_unique<RuntimeSubscriber>(*bus_, clock_, node));
  }
  for (const auto& spec : topics_) {
    const int index = subscriber_index(spec.id);
    subscribers_[index]->add_topic(spec);
    subscribers_[index]->watch(spec.id);
    primary_->subscribe(spec.id, kSubscriberNodes[index]);
    backup_->subscribe(spec.id, kSubscriberNodes[index]);
  }
}

Topology::~Topology() { stop(); }

int Topology::subscriber_index(TopicId topic) const {
  if (topics_[topic].destination == Destination::kCloud) return 2;
  return static_cast<int>(topic % 2);
}

RuntimePublisher& Topology::add_publisher(NodeId node,
                                          std::vector<TopicSpec> topics,
                                          Duration period) {
  RuntimePublisher::Options options;
  options.node = node;
  options.primary = kPrimaryNode;
  options.backup = kBackupNode;
  options.poll_period = kPollPeriod;
  options.poll_miss_threshold = kPollMisses;
  publishers_.push_back(std::make_unique<RuntimePublisher>(
      *bus_, clock_, options, std::move(topics), period));
  return *publishers_.back();
}

void Topology::start() {
  primary_->start();
  backup_->start();
  for (auto& publisher : publishers_) publisher->start();
}

void Topology::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& publisher : publishers_) publisher->stop();
  primary_->stop();
  backup_->stop();
  bus_->shutdown();
}

std::uint64_t Topology::delivered() const {
  std::uint64_t total = 0;
  for (const auto& sub : subscribers_) total += sub->total_unique();
  return total;
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

Accounting account_deliveries(Topology& topology,
                              const std::vector<SeqNo>& last_seq,
                              TimePoint window_start, TimePoint window_end) {
  Accounting acc;
  acc.topics = topology.topics().size();
  for (const auto& spec : topology.topics()) {
    const SeqNo last = last_seq[spec.id];
    if (last == 0) continue;
    RuntimeSubscriber& sub =
        topology.subscriber(topology.subscriber_index(spec.id));
    const LossStats loss = sub.loss_stats(spec.id, 1, last);
    acc.created += loss.expected;
    acc.lost += loss.total_losses;
    if (!spec.best_effort() &&
        loss.max_consecutive_losses > spec.loss_tolerance) {
      ++acc.li_violations;
      acc.li_violation_losses += loss.total_losses;
    }
    for (const TraceSample& sample : sub.trace(spec.id)) {
      if (sample.seq > last) continue;
      ++acc.delivered;
      if (sample.latency <= spec.deadline) ++acc.on_time;
      acc.add_latency(sample.created_at, sample.latency, window_start,
                      window_end);
    }
  }
  for (int i = 0; i < 3; ++i) {
    acc.duplicates += topology.subscriber(i).total_duplicates();
  }
  return acc;
}

void check_accounting(PhaseResult& result, const Accounting& acc) {
  if (acc.created == 0 || acc.latency_us.empty()) {
    result.fail("no message was delivered in the measured window");
  }
  if (acc.delivered + acc.lost != acc.created) {
    result.fail("accounting does not conserve: delivered " +
                std::to_string(acc.delivered) + " + lost " +
                std::to_string(acc.lost) + " != created " +
                std::to_string(acc.created));
  }
}

void Accounting::add_latency(TimePoint created, Duration latency,
                             TimePoint window_start, TimePoint window_end) {
  if (created < window_start || created >= window_end) return;
  latency_us.push_back(to_micros(latency));
}

WindowMeter::WindowMeter(const MonotonicClock& clock, TimePoint start,
                         Duration length, Count delivered) {
  thread_ = std::thread([this, &clock, start, length,
                         delivered = std::move(delivered)] {
    sleep_until(clock, start);
    const TimePoint t = clock.now();
    const double cpu = process_cpu_seconds();
    const std::uint64_t count = delivered();
    sleep_until(clock, start + length);
    seconds_ = to_seconds(clock.now() - t);
    cpu_seconds_ = process_cpu_seconds() - cpu;
    delivered_ = delivered() - count;
  });
}

void WindowMeter::join() {
  if (thread_.joinable()) thread_.join();
}

double WindowMeter::goodput_msgs_per_s() const {
  return static_cast<double>(delivered_) / seconds_;
}

double WindowMeter::cpu_us_per_msg() const {
  return cpu_seconds_ * 1e6 /
         static_cast<double>(std::max<std::uint64_t>(delivered_, 1));
}

void add_accounting_metrics(PhaseResult& result, const Accounting& acc,
                            const WindowMeter& meter, double setup_seconds) {
  std::vector<double> latency_us = acc.latency_us;
  const double created = static_cast<double>(std::max<std::uint64_t>(
      acc.created, 1));
  const double topics =
      static_cast<double>(std::max<std::size_t>(acc.topics, 1));
  result.add_e2e("setup_s", setup_seconds, "s");
  result.add_e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  result.add_e2e("cpu_us_per_msg", meter.cpu_us_per_msg(), "us");
  result.add_e2e("e2e_latency_p50_us", percentile(latency_us, 50.0), "us");
  result.add_e2e("e2e_latency_p99_us", percentile(latency_us, 99.0), "us");
  result.add_e2e("goodput_msgs_per_s", meter.goodput_msgs_per_s(), "1/s");
  result.add_e2e("deadline_met_ratio",
                 static_cast<double>(acc.on_time) / created, "ratio");
  result.add_e2e("delivered_ratio",
                 static_cast<double>(acc.delivered) / created, "ratio");
  result.add_e2e("li_kept_ratio",
                 (topics - static_cast<double>(acc.li_violations)) / topics,
                 "ratio");
  result.attempted += acc.created;
}

// ---------------------------------------------------------------------------
// Traced-run analysis
// ---------------------------------------------------------------------------

void add_layer_metrics(PhaseResult& result, const LayerInputs& in,
                       const Accounting& acc) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto p50 = [](std::vector<double> v) { return percentile(v, 50.0); };
  std::vector<double> lag = in.gen_lag_us;
  const double delivered = static_cast<double>(acc.delivered);
  const double arrivals = static_cast<double>(in.primary.arrivals);
  const PrimaryEngine::Stats& p = in.primary;

  result.add_layer("gen.lag_p99_us", percentile(lag, 99.0), "us");
  result.add_layer("gen.backpressured",
                   static_cast<double>(in.gen_backpressured), "count");
  result.add_layer("net.bus.frames_per_msg",
                   ratio(static_cast<double>(in.frames), delivered), "ratio");
  result.add_layer("net.bus.bytes_per_msg",
                   ratio(static_cast<double>(in.bytes), delivered), "B");
  result.add_layer("net.bus.backpressure_ratio",
                   ratio(static_cast<double>(in.capacity_refusals),
                         static_cast<double>(in.try_sends)),
                   "ratio");
  result.add_layer("runtime.broker.inbox_backpressure",
                   static_cast<double>(in.inbox_backpressure), "count");
  result.add_layer("runtime.broker.duplicates_suppressed",
                   static_cast<double>(in.duplicates_suppressed), "count");
  result.add_layer("broker.primary.arrivals", arrivals, "count");
  result.add_layer("broker.primary.dispatch_useful_ratio",
                   ratio(static_cast<double>(p.dispatches_executed),
                         static_cast<double>(p.dispatch_jobs_created)),
                   "ratio");
  result.add_layer("broker.primary.replicate_jobs_per_msg",
                   ratio(static_cast<double>(p.replicate_jobs_created),
                         arrivals),
                   "ratio");
  result.add_layer(
      "broker.primary.coordination_ratio",
      ratio(static_cast<double>(p.prune_requests + p.replicate_jobs_cancelled +
                                p.replications_aborted),
            arrivals),
      "ratio");
  result.add_layer("broker.primary.prunes_per_msg",
                   ratio(static_cast<double>(p.prune_requests), arrivals),
                   "ratio");
  result.add_layer("broker.primary.stale_jobs",
                   static_cast<double>(p.stale_jobs), "count");
  result.add_layer("broker.primary.overwritten",
                   static_cast<double>(p.overwritten_undelivered), "count");
  result.add_layer("broker.backup.replicas_per_msg",
                   ratio(static_cast<double>(in.replicas),
                         static_cast<double>(acc.created)),
                   "ratio");
  result.add_layer("broker.backup.recovered_per_failover", p50(in.recovered),
                   "count");
  result.add_layer("broker.detector.detect_ms", p50(in.detect_ms), "ms");
  result.add_layer("broker.detector.false_promotions",
                   static_cast<double>(in.false_promotions), "count");
  result.add_layer("runtime.publisher.redirect_ms", p50(in.redirect_ms), "ms");
  result.add_layer("runtime.publisher.spurious_failovers",
                   static_cast<double>(in.spurious_failovers), "count");
  result.add_layer("failover.x_ms_p50", p50(in.failover_ms), "ms");
  result.add_layer("failover.cycles",
                   static_cast<double>(in.failover_ms.size()), "count");
  result.add_layer("failover.cycles_over_x",
                   static_cast<double>(in.cycles_over_x), "count");
  result.add_layer("broker.subscriber.duplicate_ratio",
                   ratio(static_cast<double>(acc.duplicates), delivered),
                   "ratio");
}

namespace {

std::atomic<std::uint64_t> g_replay_sink{0};

/// Median over rounds of the per-operation time of `body` (ns).
template <typename Body>
double ns_per_op(std::size_t ops, Body&& body) {
  std::vector<double> rounds;
  for (int round = 0; round < 9; ++round) {
    const auto start = std::chrono::steady_clock::now();
    body(round);
    const auto end = std::chrono::steady_clock::now();
    rounds.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()) /
        static_cast<double>(std::max<std::size_t>(ops, 1)));
  }
  return median(std::move(rounds));
}

}  // namespace

void add_replay_metrics(PhaseResult& result,
                        const std::vector<std::vector<std::uint8_t>>& frames,
                        const std::vector<TopicSpec>& topics,
                        const TimingParams& timing) {
  // Replays time the calls as the untraced program runs them.
  const obs::EnabledScope obs_off(false);
  std::vector<Message> messages;
  for (const auto& frame : frames) {
    if (auto msg = decode_message_frame(frame)) messages.push_back(*msg);
  }
  double encode_ns = 0, decode_ns = 0, crc_ns = 0, queue_ns = 0, engine_ns = 0;
  if (!messages.empty()) {
    std::uint64_t sink = 0;
    crc_ns = ns_per_op(frames.size(), [&](int) {
      for (const auto& f : frames) sink += frame_checksum_ok(f) ? 1 : 0;
    });
    decode_ns = ns_per_op(frames.size(), [&](int) {
      for (const auto& f : frames) {
        if (auto m = decode_message_frame(f)) sink += m->seq;
      }
    });
    encode_ns = ns_per_op(messages.size(), [&](int) {
      for (const auto& m : messages) {
        sink += encode_message_frame(WireType::kDeliver, m).size();
      }
    });

    // EDF job queue at the depth the lanes typically see: push a burst of
    // jobs with the topics' real dispatch deadlines, then pop it.
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      const Message& m = messages[i];
      Job job;
      job.topic = m.topic;
      job.seq = m.seq;
      job.release = static_cast<TimePoint>(i) * 1000;
      job.deadline =
          job.release + dispatch_pseudo_deadline(topics[m.topic], timing);
      job.order = i;
      jobs.push_back(job);
    }
    constexpr std::size_t kBurst = 64;
    queue_ns = ns_per_op(jobs.size(), [&](int) {
      JobQueue queue(SchedulingPolicy::kEdf);
      for (std::size_t i = 0; i < jobs.size(); i += kBurst) {
        const std::size_t end = std::min(i + kBurst, jobs.size());
        for (std::size_t k = i; k < end; ++k) queue.push(jobs[k]);
        while (auto job = queue.pop()) sink += job->seq;
      }
    });

    // One PrimaryEngine over the workload's topic set: admit each captured
    // message, then run every job it created (dispatch, and replicate for
    // Proposition-1 topics).
    PrimaryEngine engine(broker_config(ConfigName::kFrame), topics, timing);
    for (const auto& spec : topics) {
      engine.subscribe(spec.id, kSubscriberNodes[0]);
    }
    engine_ns = ns_per_op(messages.size(), [&](int round) {
      TimePoint now = static_cast<TimePoint>(round) * seconds(10);
      for (Message m : messages) {
        m.seq += static_cast<SeqNo>(round) * 1'000'000;
        now += 1000;
        m.created_at = now;
        engine.on_publish(m, now);
        while (auto job = engine.next_job()) {
          if (job->kind == JobKind::kDispatch) {
            sink += engine.execute_dispatch(*job, now).executed ? 1 : 0;
          } else {
            sink += engine.execute_replicate(*job, now).executed ? 1 : 0;
          }
        }
      }
    });
    g_replay_sink.fetch_add(sink, std::memory_order_relaxed);
  }
  result.add_layer("net.wire.encode_ns", encode_ns, "ns");
  result.add_layer("net.wire.decode_ns", decode_ns, "ns");
  result.add_layer("net.crc.check_ns", crc_ns, "ns");
  result.add_layer("core.job_queue.push_pop_ns", queue_ns, "ns");
  result.add_layer("broker.engine.publish_dispatch_ns", engine_ns, "ns");
}

namespace {

/// Folded snapshot quantile (us) of a program latency recorder; 0 if absent.
double program_stage_us(std::string_view name, double q) {
  const obs::ObsSnapshot snap = obs::collect_snapshot(0);
  for (const auto& [series, recorder] : snap.metrics.latencies) {
    if (series == name) {
      return recorder.count() == 0 ? 0.0 : recorder.quantile(q) / 1e3;
    }
  }
  return 0.0;
}

/// Timestamps of one message's path, joined from its spans by id.
struct Chain {
  TimePoint gen_start = 0, gen_end = 0;
  TimePoint pub_start = 0, pub_end = 0;
  TimePoint intake_start = 0, intake_end = 0;
  TimePoint tc = 0, tp = 0, td = 0;
  TimePoint deliver_start = 0, deliver_end = 0;
  TimePoint sub_start = 0, sub_end = 0;
};

void keep_first(TimePoint& slot_start, TimePoint& slot_end, const Span& s) {
  if (slot_start != 0) return;
  slot_start = s.start;
  slot_end = s.end;
}

}  // namespace

void add_span_metrics(PhaseResult& result, const std::vector<Span>& spans,
                      double ledger_e2e_p50_us) {
  std::vector<double> send_ns, intake_ns, sub_ns;
  std::unordered_map<std::uint64_t, Chain> chains;
  chains.reserve(spans.size() / 3 + 1);
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end - s.start);
    switch (s.kind) {
      case SpanKind::kGenerate:
        keep_first(chains[s.id].gen_start, chains[s.id].gen_end, s);
        break;
      case SpanKind::kPublishSend:
        send_ns.push_back(dur);
        keep_first(chains[s.id].pub_start, chains[s.id].pub_end, s);
        break;
      case SpanKind::kIntake:
        intake_ns.push_back(dur);
        keep_first(chains[s.id].intake_start, chains[s.id].intake_end, s);
        break;
      case SpanKind::kDeliverSend: {
        send_ns.push_back(dur);
        Chain& c = chains[s.id];
        if (c.deliver_start == 0) {
          c.deliver_start = s.start;
          c.deliver_end = s.end;
          c.tc = s.created_at;
          c.tp = s.broker_arrival;
          c.td = s.dispatched_at;
        }
        break;
      }
      case SpanKind::kSubscriberHandle:
        sub_ns.push_back(dur);
        keep_first(chains[s.id].sub_start, chains[s.id].sub_end, s);
        break;
      case SpanKind::kReplicaSend:
      case SpanKind::kBackupHandle:
        break;
    }
  }

  // Blocking-path stages of one message, in path order.  Each is the gap
  // between two stamps of that message, so the stages tile its e2e time.
  constexpr const char* kStages[] = {
      "generate",   "publish_send",   "transit_pb",   "intake",
      "shard_ring", "lanes_to_td",    "encode_handoff", "deliver_send",
      "transit_bs", "subscriber",
  };
  constexpr std::size_t kStageCount = std::size(kStages);
  // The ledger explains the median message: stage means over the messages
  // whose own e2e lies within 10% of the measured e2e p50.
  std::array<double, kStageCount> stage_sum{};
  std::size_t in_band = 0;
  std::vector<double> transit_us;
  const auto gap = [](TimePoint a, TimePoint b) {
    return a != 0 && b != 0 && b >= a ? to_micros(b - a) : 0.0;
  };
  for (const auto& [id, c] : chains) {
    (void)id;
    if (c.pub_end != 0 && c.intake_start != 0) {
      transit_us.push_back(gap(c.pub_end, c.intake_start));
    }
    if (c.deliver_end != 0 && c.sub_start != 0) {
      transit_us.push_back(gap(c.deliver_end, c.sub_start));
    }
    const TimePoint origin = c.gen_start != 0 ? c.gen_start : c.tc;
    const TimePoint first_hop = c.pub_start != 0 ? c.pub_start : c.intake_start;
    const TimePoint end = c.sub_end != 0 ? c.sub_end : c.deliver_end;
    if (origin == 0 || end == 0 || c.tp == 0) continue;
    const double e2e_us = to_micros(end - origin);
    if (std::abs(e2e_us - ledger_e2e_p50_us) > 0.1 * ledger_e2e_p50_us) {
      continue;
    }
    const std::array<double, kStageCount> stage = {
        gap(origin, first_hop),          gap(c.pub_start, c.pub_end),
        gap(c.pub_end, c.intake_start),  gap(c.intake_start, c.intake_end),
        gap(c.intake_end, c.tp),         gap(c.tp, c.td),
        gap(c.td, c.deliver_start),      gap(c.deliver_start, c.deliver_end),
        gap(c.deliver_end, c.sub_start), gap(c.sub_start, c.sub_end),
    };
    for (std::size_t k = 0; k < kStageCount; ++k) stage_sum[k] += stage[k];
    ++in_band;
  }

  result.add_layer("net.bus.try_send_ns_p50", percentile(send_ns, 50.0), "ns");
  result.add_layer("net.bus.transit_us_p50", percentile(transit_us, 50.0),
                   "us");
  result.add_layer("net.bus.transit_us_p99", percentile(transit_us, 99.0),
                   "us");
  result.add_layer("runtime.broker.intake_ns_p50",
                   percentile(intake_ns, 50.0), "ns");
  result.add_layer("runtime.subscriber.handler_ns_p50",
                   percentile(sub_ns, 50.0), "ns");
  result.add_layer("runtime.dispatch.queue_delay_us_p50",
                   program_stage_us("frame_dispatch_queue_delay_ns", 0.50),
                   "us");
  result.add_layer("runtime.dispatch.queue_delay_us_p99",
                   program_stage_us("frame_dispatch_queue_delay_ns", 0.99),
                   "us");
  result.add_layer("runtime.dispatch.service_us_p50",
                   program_stage_us("frame_dispatch_service_ns", 0.50), "us");

  double attributed = 0.0;
  for (std::size_t k = 0; k < kStageCount; ++k) {
    const double mean =
        in_band == 0 ? 0.0 : stage_sum[k] / static_cast<double>(in_band);
    attributed += mean;
    result.add_layer(std::string("ledger.") + kStages[k] + "_us", mean, "us");
  }
  result.add_layer("ledger.unattributed_pct",
                   in_band == 0 ? 100.0
                                : 100.0 * (ledger_e2e_p50_us - attributed) /
                                      ledger_e2e_p50_us,
                   "%");
}

}  // namespace frame::perf
