// Shared pieces of the FRAME benchmark (framebench).
//
// The benchmark reaches the program only through its public surfaces:
// RuntimeBroker / RuntimeSubscriber / RuntimePublisher, PublisherEngine,
// TcpBus and the Bus interface, the wire codec, and admit_all.  This header
// holds what the three workloads share: run options, the phase result, the
// in-memory span log the traced run records, the Bus decorator that records
// it, and the Fig. 6 topology assembled the way EdgeSystem assembles it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "broker/primary_engine.hpp"
#include "common/time.hpp"
#include "core/topic.hpp"
#include "net/bus.hpp"
#include "net/tcp_bus.hpp"
#include "net/wire.hpp"
#include "runtime/runtime_broker.hpp"
#include "runtime/runtime_publisher.hpp"
#include "runtime/runtime_subscriber.hpp"

namespace frame::perf {

using runtime::RuntimeBroker;
using runtime::RuntimePublisher;
using runtime::RuntimeSubscriber;

// ---------------------------------------------------------------------------
// Run options and results
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string span_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one measured phase (untraced or traced) of a workload produces.
struct PhaseResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;     ///< every end-to-end metric
  std::vector<Metric> layers;  ///< per-layer metrics (traced phase only)
  std::vector<std::pair<std::string, std::string>> provenance;

  void fail(std::string why);
  void add_e2e(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
  double e2e_value(std::string_view name) const;
};

using WorkloadFn = PhaseResult (*)(const RunOptions&, bool traced);

PhaseResult run_table2_tcp(const RunOptions& options, bool traced);
PhaseResult run_broker_saturate(const RunOptions& options, bool traced);
PhaseResult run_failover_cycles(const RunOptions& options, bool traced);

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();

/// Resident-set high-water mark of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Linear-interpolated percentile (p in [0,100]) of `values`; sorts them.
double percentile(std::vector<double>& values, double p);

/// Median of a small sample; sorts it.
double median(std::vector<double> values);

/// Sleeps until `deadline` on `clock`.
void sleep_until(const MonotonicClock& clock, TimePoint deadline);

/// Lowers this thread's timer slack so sleeps wake close to their deadline
/// (the open-loop generator must not add the kernel's default 50 us).
void tighten_timer_slack();

/// splitmix64-based deterministic stream for benchmark inputs.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The 16-byte payload (the paper's size) every workload publishes.
inline constexpr std::size_t kPayloadBytes = 16;

/// Admission gate shared by every workload: Lemmas 1/2 must admit every
/// topic under `timing`.  Returns a description of the first failures, or
/// an empty string when the set is admissible.
std::string admission_failures(const std::vector<TopicSpec>& topics,
                               const TimingParams& timing);

/// Messages keyed as (topic, seq), the id all spans of one message share.
constexpr std::uint64_t message_id(TopicId topic, SeqNo seq) {
  return (static_cast<std::uint64_t>(topic) << 40) | (seq & ((1ull << 40) - 1));
}

/// Fields peeked from a frame without decoding it (offsets follow
/// encode_message_frame: tag, topic u32, seq u64, tc, tp, td i64).
struct FramePeek {
  WireType type{};
  bool message = false;  ///< carries (topic, seq)
  TopicId topic = kInvalidTopic;
  SeqNo seq = 0;
  TimePoint created_at = 0;
  TimePoint broker_arrival = 0;
  TimePoint dispatched_at = 0;
};
FramePeek peek_frame(const std::vector<std::uint8_t>& frame);

// ---------------------------------------------------------------------------
// Span log (traced run only)
// ---------------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kGenerate = 0,      ///< generator: create_batch + encode, per message
  kPublishSend,       ///< publisher -> broker try_send (kPublish/kResend)
  kIntake,            ///< broker endpoint handler on a publish/resend
  kDeliverSend,       ///< broker -> subscriber try_send (kDeliver)
  kReplicaSend,       ///< broker -> broker send (kReplicate/kPrune)
  kBackupHandle,      ///< broker endpoint handler on a replica/prune
  kSubscriberHandle,  ///< subscriber endpoint handler on a delivery
};
const char* to_string(SpanKind kind);

struct Span {
  std::uint64_t id = 0;  ///< message_id(topic, seq)
  TimePoint start = 0;
  TimePoint end = 0;
  /// tc/tp/td peeked from the frame (deliver sends only, else 0).
  TimePoint created_at = 0;
  TimePoint broker_arrival = 0;
  TimePoint dispatched_at = 0;
  SpanKind kind = SpanKind::kGenerate;
};

/// Process-wide span log.  Each recording thread appends to its own
/// buffer, so recording takes no lock after a thread's first span.  The
/// log is read only after every recording thread has stopped.
class SpanLog {
 public:
  static SpanLog& instance();
  void record(const Span& span);
  /// Moves every buffered span out and empties the buffers.
  std::vector<Span> take();
  /// Writes `spans` as text (one span per line) to `path`.
  static bool write(const std::vector<Span>& spans, const std::string& path,
                    std::size_t max_lines);

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Which side of the Fig. 6 topology a node is on.
enum class NodeClass : std::uint8_t { kBroker, kSubscriber, kPublisher };

/// Bus decorator for the traced run: times each send/try_send and each
/// endpoint handler call, counts frames, bytes and backpressure, and keeps
/// a sample of the publish frames the workload produced for the replays.
class SpanBus final : public Bus {
 public:
  /// Spans are recorded for seqs with (seq & sample_mask) == 0.
  SpanBus(std::unique_ptr<Bus> inner, const MonotonicClock& clock,
          SeqNo sample_mask = 0);
  ~SpanBus() override = default;
  SpanBus(const SpanBus&) = delete;
  SpanBus& operator=(const SpanBus&) = delete;

  void register_endpoint(NodeId node, Handler handler) override;
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> frame) override;
  Status try_send(NodeId from, NodeId to,
                  std::vector<std::uint8_t> frame) override;
  void crash(NodeId node) override { inner_->crash(node); }
  void restore(NodeId node) override { inner_->restore(node); }
  bool crashed(NodeId node) const override { return inner_->crashed(node); }
  void shutdown() override { inner_->shutdown(); }

  std::uint64_t frames() const { return frames_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }
  std::uint64_t try_sends() const { return try_sends_.load(); }
  std::uint64_t capacity_refusals() const { return capacity_.load(); }
  std::vector<std::vector<std::uint8_t>> captured_publish_frames() const;

 private:
  Status timed_send(NodeId from, NodeId to, std::vector<std::uint8_t> frame);

  std::unique_ptr<Bus> inner_;
  const MonotonicClock& clock_;
  SeqNo sample_mask_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> try_sends_{0};
  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<std::size_t> captured_count_{0};
  mutable std::mutex capture_mutex_;
  std::vector<std::vector<std::uint8_t>> captured_;
};

/// Classifies the node ids the topology hands out.
NodeClass node_class(NodeId node);

// ---------------------------------------------------------------------------
// Fig. 6 topology over loopback TCP
// ---------------------------------------------------------------------------

inline constexpr NodeId kPrimaryNode = 1;
inline constexpr NodeId kBackupNode = 2;
inline constexpr NodeId kSubscriberNodes[3] = {10, 11, 12};
inline constexpr NodeId kFirstPublisherNode = 100;
/// The TCP workloads record spans for one message in four (seq % 4 == 0),
/// which keeps whole chains for the ledger at a quarter of the memory.
inline constexpr SeqNo kSpanMask = 3;
/// Cap on one TcpBus connect attempt; below the detectors' threshold.
inline constexpr Duration kConnectTimeout = milliseconds(20);
/// Failure detectors of brokers and publishers: poll every 5 ms, suspect
/// after 14 missed replies (70 ms of silence; EdgeSystem's 10 ms x 3
/// suspects after 30 ms).  On a shared 4-vCPU host the whole process
/// stalls for 35-65 ms every few tens of seconds.  With 35 ms of silence
/// allowed, one failover_cycles run in five saw a publisher fail over with
/// no crash behind it.  The worst-case detection time is 75 ms, so
/// failover_cycles declares x = 90 ms (kBenchFailoverX).
inline constexpr Duration kPollPeriod = milliseconds(5);
inline constexpr int kPollMisses = 14;
/// The failover time x that failover_cycles declares to the admission test.
/// It covers the detectors above; the paper's 50 ms does not.
inline constexpr Duration kBenchFailoverX = milliseconds(90);

/// Primary + Backup broker, edge subscribers ES1/ES2 and cloud subscriber
/// CS1 on one TcpBus, subscribed on both brokers as EdgeSystem does.  Every
/// subscriber watches every topic so each unique delivery leaves a sample.
/// Publishers are owned here too: their handlers must outlive the bus.
class Topology {
 public:
  Topology(const MonotonicClock& clock, std::vector<TopicSpec> topics,
           TimingParams timing, std::size_t shards, bool traced);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  Bus& bus() { return *bus_; }
  SpanBus* span_bus() { return span_bus_; }
  RuntimeBroker& broker(NodeId node) {
    return node == kPrimaryNode ? *primary_ : *backup_;
  }
  RuntimeSubscriber& subscriber(int index) { return *subscribers_[index]; }
  int subscriber_index(TopicId topic) const;
  const std::vector<TopicSpec>& topics() const { return topics_; }

  RuntimePublisher& add_publisher(NodeId node, std::vector<TopicSpec> topics,
                                  Duration period);
  std::vector<std::unique_ptr<RuntimePublisher>>& publishers() {
    return publishers_;
  }

  /// Starts both brokers and every publisher added so far.
  void start();
  /// Stops publishers, brokers and the bus; idempotent.
  void stop();

  /// Unique first-copy deliveries across all subscribers.
  std::uint64_t delivered() const;

 private:
  const MonotonicClock& clock_;
  std::vector<TopicSpec> topics_;
  std::unique_ptr<Bus> bus_;
  SpanBus* span_bus_ = nullptr;
  std::unique_ptr<RuntimeBroker> primary_;
  std::unique_ptr<RuntimeBroker> backup_;
  std::vector<std::unique_ptr<RuntimeSubscriber>> subscribers_;
  std::vector<std::unique_ptr<RuntimePublisher>> publishers_;
  bool stopped_ = false;
};

/// Samples a delivered-message count and the process CPU time when the
/// measured window opens and when it closes, on its own thread, so the
/// workload's own thread stays free (failover_cycles crashes brokers
/// meanwhile).  Goodput and CPU per message are over the whole window.
class WindowMeter {
 public:
  using Count = std::function<std::uint64_t()>;
  WindowMeter(const MonotonicClock& clock, TimePoint start, Duration length,
              Count delivered);
  ~WindowMeter() { join(); }
  WindowMeter(const WindowMeter&) = delete;
  WindowMeter& operator=(const WindowMeter&) = delete;

  /// Waits until the window has ended.
  void join();
  double goodput_msgs_per_s() const;
  double cpu_us_per_msg() const;

 private:
  double seconds_ = 0;
  double cpu_seconds_ = 0;
  std::uint64_t delivered_ = 0;
  std::thread thread_;
};

/// Per-topic delivery accounting read from the subscribers after a run:
/// every created (topic, seq) is delivered (duplicates apart) or lost.
struct Accounting {
  std::size_t topics = 0;
  std::uint64_t created = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t on_time = 0;          ///< delivered within Di
  std::uint64_t li_violations = 0;    ///< topics whose loss run exceeds Li
  std::uint64_t li_violation_losses = 0;  ///< losses in those topics
  /// E2E latencies of the messages created in the measured window.
  std::vector<double> latency_us;

  /// Keeps one latency sample if its message was created in the window.
  void add_latency(TimePoint created, Duration latency, TimePoint window_start,
                   TimePoint window_end);
};

/// `last_seq[t]` is the last seq created for topic t (seqs start at 1).
Accounting account_deliveries(Topology& topology,
                              const std::vector<SeqNo>& last_seq,
                              TimePoint window_start, TimePoint window_end);

/// Fails `result` unless every created message is delivered or lost.
void check_accounting(PhaseResult& result, const Accounting& acc);

/// Appends the metrics every workload reports.
void add_accounting_metrics(PhaseResult& result, const Accounting& acc,
                            const WindowMeter& meter, double setup_seconds);

/// Set-up is timed this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 31;
inline constexpr Duration kSetupTimeout = seconds(10);

/// The deployment a workload measures, and its median set-up time.
template <typename T>
struct Setup {
  std::unique_ptr<T> live;  ///< null when a set-up saw no delivery in time
  double median_s = 0.0;
};

/// Builds and starts a deployment kSetupRepeats times, each until
/// `delivered(deployment)` is non-zero; tears each down before the next
/// and keeps the last one running.  `build()` returns a unique_ptr whose
/// destructor stops the deployment.
template <typename Build, typename Delivered>
auto measure_setup(const MonotonicClock& clock, Build&& build,
                   Delivered&& delivered) {
  using T = typename decltype(build())::element_type;
  Setup<T> setup;
  std::vector<double> times;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    setup.live.reset();
    SpanLog::instance().take();  // keep only the measured deployment's spans
    const TimePoint begin = clock.now();
    std::unique_ptr<T> deployment = build();
    while (delivered(*deployment) == 0) {
      if (clock.now() - begin > kSetupTimeout) return Setup<T>{};
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    times.push_back(to_seconds(clock.now() - begin));
    setup.live = std::move(deployment);
  }
  setup.median_s = median(std::move(times));
  return setup;
}

/// Waits until `count()` has not moved for `quiet`, at least `min_wait`
/// and at most `max_wait` from now: the drain after the last publish.
template <typename Count>
void wait_settled(const MonotonicClock& clock, Count&& count,
                  Duration min_wait, Duration max_wait, Duration quiet) {
  const TimePoint start = clock.now();
  sleep_until(clock, start + min_wait);
  auto last = count();
  TimePoint moved = clock.now();
  while (clock.now() - start < max_wait && clock.now() - moved < quiet) {
    sleep_until(clock, clock.now() + milliseconds(10));
    const auto now_count = count();
    if (now_count != last) {
      last = now_count;
      moved = clock.now();
    }
  }
}

// ---------------------------------------------------------------------------
// Traced-run analysis
// ---------------------------------------------------------------------------

/// Everything the per-layer metrics are computed from, gathered by each
/// workload after its traced phase.  One function turns it into metrics so
/// every workload reports the same set (0 where a layer is idle in it).
struct LayerInputs {
  std::vector<double> gen_lag_us;      ///< open-loop lateness per batch
  std::uint64_t gen_backpressured = 0; ///< generator sends refused
  std::uint64_t frames = 0;            ///< frames through the bus
  std::uint64_t bytes = 0;
  std::uint64_t try_sends = 0;
  std::uint64_t capacity_refusals = 0;
  std::uint64_t inbox_backpressure = 0;
  std::uint64_t duplicates_suppressed = 0;
  PrimaryEngine::Stats primary{};      ///< summed over serving brokers
  std::uint64_t replicas = 0;          ///< replicas received by Backups
  std::vector<double> recovered;       ///< Backup Buffer copies per failover
  std::vector<double> detect_ms;       ///< crash -> standby promoted
  std::vector<double> redirect_ms;     ///< crash -> every publisher redirected
  std::vector<double> failover_ms;     ///< crash -> both of the above
  std::uint64_t cycles_over_x = 0;
  std::uint64_t spurious_failovers = 0;  ///< publisher, no crash injected
  std::uint64_t false_promotions = 0;    ///< Backup, no crash injected
};
void add_layer_metrics(PhaseResult& result, const LayerInputs& in,
                       const Accounting& acc);

/// Replays the codec, CRC, JobQueue and PrimaryEngine calls on frames and
/// the topic set captured from the workload; adds their per-layer metrics.
void add_replay_metrics(PhaseResult& result,
                        const std::vector<std::vector<std::uint8_t>>& frames,
                        const std::vector<TopicSpec>& topics,
                        const TimingParams& timing);

/// Per-layer metrics derived from the span log and the program's own stage
/// histograms (frame_dispatch_{queue_delay,service}_ns), plus the ledger:
/// the mean of each blocking-path stage over messages whose own e2e lies
/// within 10% of `ledger_e2e_p50_us`, and the share of it the stages leave
/// unexplained (ledger.unattributed_pct).
void add_span_metrics(PhaseResult& result, const std::vector<Span>& spans,
                      double ledger_e2e_p50_us);

/// Writes the traced run's spans under the build directory.
void dump_spans(const std::vector<Span>& spans, const RunOptions& options);

}  // namespace frame::perf
