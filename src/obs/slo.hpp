// The per-topic deadline account and online SLO monitor: the system
// watching its own Lemma 1/2 and Li bounds while running (DESIGN.md §7,
// §13).
//
// One slot per topic holds both views of the three promises FRAME makes:
//   * all-time totals — dispatches and Lemma 2 misses, replications and
//     Lemma 1 misses, deliveries and end-to-end misses against Di, losses
//     and the worst consecutive-loss streak against Li, and the per-topic
//     e2e latency distribution (exported by obs/export.hpp);
//   * rolling windows of the same counts (short 1 s, long 8 s), feeding
//     the error-budget burn rate — the miss fraction divided by the
//     0.001 error budget, the "observe the tail" discipline of SRE
//     burn-rate alerting: burn 1.0 consumes exactly the budget, 14.4
//     consumes a day's budget in 100 minutes;
//   * deadline headroom — the laxity Dd_i − Rd_i (dispatch, Lemma 2) and
//     Dr_i − Rr_i (replication, Lemma 1) reported by the engines at job
//     completion (core/timing.hpp laxity()), log-binned like every other
//     latency plus a rolling-window minimum;
//   * Li-streak proximity — the worst observed streak as a fraction of Li
//     (1.0 = budget exhausted, > 1.0 = breach).
// The dispatch/replication counts are also folded per Primary shard.
//
// Mapping to the paper's symbols (Section III):
//   dispatch slack    = (tp + Dd) - now,  Dd = Di - ΔPB - ΔBS   (Lemma 2)
//   replication slack = (tp + Dr) - now,  Dr = (Ni+Li)·Ti - ΔPB - ΔBB - x
//                                                                 (Lemma 1)
//   loss streak       = longest run of sequence numbers never delivered,
//                       compared against Li.
//
// Feeds come exclusively from the obs hook slow paths, so the disabled
// cost stays the hooks' one relaxed load + branch; every update here is a
// spinlock-guarded handful of arithmetic (no allocation on the hot path
// after configure()).
//
// Alerting is declarative: a fixed AlertRule table (threshold + window +
// severity) evaluated on demand — by GET /alerts, /slo.json and /healthz,
// by frame_stats, and by tests.  Windows advance on the driving-clock
// timestamps the hooks deliver, so evaluation is deterministic under
// simulated clocks; a quiescent system holds its last window state.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "core/topic.hpp"
#include "core/topic_sharding.hpp"
#include "obs/metrics.hpp"

namespace frame::obs {

enum class Severity : std::uint8_t { kWarning = 0, kCritical = 1 };
const char* to_string(Severity severity);

/// What an AlertRule measures.  Comparison direction is part of the metric
/// (see fires_when_above): burn rates and streak proximity alarm high,
/// headroom alarms low.
enum class SloMetric : std::uint8_t {
  kDispatchBurnRate = 0,     ///< Lemma 2 miss fraction / error budget
  kReplicationBurnRate = 1,  ///< Lemma 1 miss fraction / error budget
  kE2eBurnRate = 2,          ///< (e2e > Di) fraction / error budget
  kLossStreakProximity = 3,  ///< worst streak / Li  (fires strictly above)
  kDispatchHeadroomMin = 4,  ///< rolling-window min laxity, ns (alarms low)
  kReplicationHeadroomMin = 5,  ///< same for Lemma 1 laxity
  kDegradedMode = 6,         ///< frame_degraded_mode gauge (1 = degraded)
};
const char* to_string(SloMetric metric);
bool fires_when_above(SloMetric metric);

/// One declarative alert, evaluated across every configured topic (the
/// worst topic decides): fires when the metric crosses `threshold` over
/// `window` (above the short window = the long window; headroom/streak/
/// degraded metrics that have no natural window ignore it).
struct AlertRule {
  std::string name;
  SloMetric metric = SloMetric::kDispatchBurnRate;
  double threshold = 1.0;
  Duration window = 0;
  Severity severity = Severity::kWarning;
};

/// Evaluation result of one rule at one instant.
struct AlertState {
  AlertRule rule;
  double value = 0;
  bool firing = false;
  TimePoint since = 0;  ///< driving-clock start of the current firing run
};

/// Value snapshot of one topic's account at a given `now`.
struct TopicSloSnapshot {
  TopicId topic = kInvalidTopic;
  std::uint32_t loss_tolerance = 0;  ///< Li (kLossInfinite = best effort)
  Duration deadline = 0;             ///< Di

  // All-time totals (since configure() or the last reset()).
  std::uint64_t dispatches = 0;
  std::uint64_t dispatch_misses = 0;  ///< Lemma 2 violations
  std::uint64_t replications = 0;
  std::uint64_t replication_misses = 0;  ///< Lemma 1 violations
  std::uint64_t deliveries = 0;
  std::uint64_t e2e_misses = 0;  ///< end-to-end latency > Di
  std::uint64_t losses_total = 0;
  std::uint64_t max_loss_streak = 0;
  /// max_loss_streak exceeded Li at some delivery.
  bool loss_budget_exceeded = false;
  LatencyRecorder::Snapshot e2e_latency;  ///< ns, unique deliveries

  // Windowed event/miss counts (short, long).
  std::uint64_t dispatches_short = 0, dispatch_misses_short = 0;
  std::uint64_t dispatches_long = 0, dispatch_misses_long = 0;
  std::uint64_t replications_short = 0, replication_misses_short = 0;
  std::uint64_t replications_long = 0, replication_misses_long = 0;
  std::uint64_t deliveries_short = 0, e2e_misses_short = 0;
  std::uint64_t deliveries_long = 0, e2e_misses_long = 0;

  double dispatch_burn_short = 0, dispatch_burn_long = 0;
  double replication_burn_short = 0, replication_burn_long = 0;
  double e2e_burn_short = 0, e2e_burn_long = 0;

  /// max_loss_streak / max(Li, 1); 0 if best effort.
  double streak_proximity = 0;

  /// Rolling-window minimum laxity (signed ns; kDurationInfinite = no
  /// completions in the window).
  Duration dispatch_headroom_min = kDurationInfinite;
  Duration replication_headroom_min = kDurationInfinite;

  /// Cumulative log-binned headroom distributions (negative laxity clamps
  /// into the lowest bin; the signed minimum is tracked above).
  LatencyRecorder::Snapshot dispatch_headroom;
  LatencyRecorder::Snapshot replication_headroom;
};

/// Per-shard fold of the same windowed accounting (hooks attribute via
/// obs::thread_shard(), exactly like the PerShard registry instruments).
struct ShardSloSnapshot {
  std::size_t shard = 0;  ///< kNoShard entries fold into shard 0's slot
  std::uint64_t dispatches_short = 0, dispatch_misses_short = 0;
  std::uint64_t replications_short = 0, replication_misses_short = 0;
  double dispatch_burn_short = 0;
  Duration dispatch_headroom_min = kDurationInfinite;
};

class SloMonitor {
 public:
  /// Evaluation windows and error budget, reported by slo_json().
  static constexpr Duration kShortWindow = seconds(1);
  static constexpr Duration kLongWindow = seconds(8);
  static constexpr double kErrorBudget = 0.001;  ///< 99.9% SLO

  static SloMonitor& instance();

  /// Installs the topic table (dense ids); growing is supported, calling
  /// again with the same topics keeps the accumulated counts.  Called from
  /// PrimaryEngine construction while observability is on.
  void configure(const std::vector<TopicSpec>& specs);
  std::size_t topic_count() const {
    return count_.load(std::memory_order_acquire);
  }

  // ---- hook feeds (slow paths only; see obs/hooks.cpp) ------------------
  /// A dispatch job executed with `laxity` = absolute deadline - now.
  void on_dispatch_executed(TopicId topic, Duration laxity, TimePoint now);
  /// A replicate job executed with `laxity` = absolute deadline - now.
  void on_replication_executed(TopicId topic, Duration laxity, TimePoint now);
  /// A unique (first-copy) delivery of (topic, seq) with end-to-end
  /// latency `e2e` ns.  Returns true when this delivery is the first to
  /// push the topic's loss streak past Li (the flight-recorder trigger).
  bool on_delivery(TopicId topic, SeqNo seq, Duration e2e, TimePoint now);

  /// Latest driving-clock timestamp any feed reported; evaluation anchors
  /// here so scrapes need no clock of their own.
  TimePoint latest_now() const {
    return latest_now_.load(std::memory_order_relaxed);
  }

  // ---- evaluation (cold path) -------------------------------------------
  /// Evaluates every rule at `now`, updating firing/since state.  A
  /// warning->firing transition of a critical rule arms the flight
  /// recorder (obs/flight_recorder.hpp) outside the monitor's lock.
  std::vector<AlertState> evaluate(TimePoint now);

  /// True when the most recent evaluate() left a critical rule firing.
  bool critical_firing() const {
    return critical_firing_.load(std::memory_order_relaxed);
  }

  TopicSloSnapshot snapshot(TopicId topic, TimePoint now) const;
  std::vector<TopicSloSnapshot> snapshot_all(TimePoint now) const;
  std::vector<ShardSloSnapshot> snapshot_shards(TimePoint now) const;

  /// Full SLO document (topics + shards + alert states) as JSON.
  std::string slo_json(TimePoint now);
  /// Just the evaluated alert table as JSON (the GET /alerts body).
  std::string alerts_json(TimePoint now);

  /// Zeroes every account and firing state; keeps the topic table.
  void reset();

 private:
  SloMonitor();

  /// Windows advance in buckets of a short window / 8; the ring holds
  /// exactly one long window.
  static constexpr std::size_t kShortBuckets = 8;
  static constexpr Duration kBucketWidth = kShortWindow / kShortBuckets;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kLongWindow / kBucketWidth);
  static std::int64_t bucket_of(TimePoint now) {
    return now < 0 ? 0 : now / kBucketWidth;
  }

  /// Rolling event counter: a ring of time buckets advanced by event
  /// timestamps, plus the all-time total.  All methods require the owning
  /// slot's lock.
  class WindowedCounter {
   public:
    void add(std::int64_t bucket_index, std::uint64_t n);
    std::uint64_t sum(std::int64_t now_bucket, std::size_t buckets_back) const;
    std::uint64_t total() const { return total_; }
    void reset();

   private:
    void advance(std::int64_t bucket_index);
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::int64_t last_ = -1;
    std::uint64_t total_ = 0;
  };

  /// Rolling minimum over the same bucket ring (window min headroom).
  class WindowedMin {
   public:
    void add(std::int64_t bucket_index, Duration value);
    Duration min(std::int64_t now_bucket, std::size_t buckets_back) const;
    void reset();

   private:
    void advance(std::int64_t bucket_index);
    std::array<Duration, kBuckets> buckets_;
    std::int64_t last_ = -1;
  };

  struct TopicSlot {
    mutable SpinLock lock;  ///< guards everything but the recorders
    std::uint32_t loss_tolerance = 0;
    Duration deadline = 0;
    WindowedCounter dispatches, dispatch_misses;
    WindowedCounter replications, replication_misses;
    WindowedCounter deliveries, e2e_misses;
    WindowedMin dispatch_headroom_min, replication_headroom_min;
    std::uint64_t losses_total = 0;
    std::uint64_t max_loss_streak = 0;
    SeqNo last_seq = 0;  ///< highest seq delivered so far
    bool loss_budget_exceeded = false;
    LatencyRecorder e2e_latency;           // own internal lock
    LatencyRecorder dispatch_headroom;     // own internal lock
    LatencyRecorder replication_headroom;  // own internal lock
  };

  struct ShardSlot {
    mutable SpinLock lock;
    WindowedCounter dispatches, dispatch_misses;
    WindowedCounter replications, replication_misses;
    WindowedMin dispatch_headroom_min;
  };

  TopicSlot* slot(TopicId topic);
  const TopicSlot* slot(TopicId topic) const;
  ShardSlot& shard_slot();

  /// Every field of snapshot() except the three recorder distributions
  /// (what rule evaluation reads).
  TopicSloSnapshot counts(TopicId topic, TimePoint now) const;
  double metric_value(const AlertRule& rule, TimePoint now) const;
  void note_now(TimePoint now);

  mutable SpinLock configure_lock_;
  std::deque<TopicSlot> slots_;  ///< deque: grow without moving slots
  std::atomic<std::size_t> count_{0};
  std::array<ShardSlot, kMaxShards> shard_slots_;
  std::atomic<std::size_t> max_shard_seen_{0};
  std::atomic<TimePoint> latest_now_{0};

  const std::vector<AlertRule> rules_;
  std::mutex firing_mutex_;
  std::vector<TimePoint> firing_since_;  ///< parallel to rules_; 0 = not firing
  std::atomic<bool> critical_firing_{false};
};

inline SloMonitor& slo() { return SloMonitor::instance(); }

}  // namespace frame::obs
