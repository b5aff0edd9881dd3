#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace frame::obs {

const char* to_string(Severity severity) {
  return severity == Severity::kCritical ? "critical" : "warning";
}

const char* to_string(SloMetric metric) {
  switch (metric) {
    case SloMetric::kDispatchBurnRate:
      return "dispatch_burn_rate";
    case SloMetric::kReplicationBurnRate:
      return "replication_burn_rate";
    case SloMetric::kE2eBurnRate:
      return "e2e_burn_rate";
    case SloMetric::kLossStreakProximity:
      return "loss_streak_proximity";
    case SloMetric::kDispatchHeadroomMin:
      return "dispatch_headroom_min_ns";
    case SloMetric::kReplicationHeadroomMin:
      return "replication_headroom_min_ns";
    case SloMetric::kDegradedMode:
      return "degraded_mode";
  }
  return "unknown";
}

bool fires_when_above(SloMetric metric) {
  switch (metric) {
    case SloMetric::kDispatchHeadroomMin:
    case SloMetric::kReplicationHeadroomMin:
      return false;
    default:
      return true;
  }
}

namespace {

std::vector<AlertRule> default_rules() {
  // Burn-rate pairs follow the SRE multiwindow recipe: a fast-burn page
  // (14.4x consumes a 30-day budget in ~2 days; here it simply means "the
  // tail is collapsing now") on the short window, and a slow-burn ticket
  // (1x = budget being consumed exactly at the allowed rate) on the long
  // window.  Thresholds fire strictly-above, so a system exactly on budget
  // does not alert.
  return {
      {"lemma2-burn-fast", SloMetric::kDispatchBurnRate, 14.4, 0,
       Severity::kCritical},
      {"lemma2-burn-slow", SloMetric::kDispatchBurnRate, 1.0,
       kDurationInfinite, Severity::kWarning},
      {"lemma1-burn-fast", SloMetric::kReplicationBurnRate, 14.4, 0,
       Severity::kCritical},
      {"lemma1-burn-slow", SloMetric::kReplicationBurnRate, 1.0,
       kDurationInfinite, Severity::kWarning},
      {"e2e-burn-fast", SloMetric::kE2eBurnRate, 14.4, 0,
       Severity::kCritical},
      {"li-streak-proximity", SloMetric::kLossStreakProximity, 0.75, 0,
       Severity::kWarning},
      {"li-streak-breach", SloMetric::kLossStreakProximity, 1.0, 0,
       Severity::kCritical},
      {"degraded-mode", SloMetric::kDegradedMode, 0.5, 0,
       Severity::kWarning},
      {"dispatch-headroom-exhausted", SloMetric::kDispatchHeadroomMin, 0.0, 0,
       Severity::kWarning},
  };
}

}  // namespace

SloMonitor::SloMonitor()
    : rules_(default_rules()), firing_since_(rules_.size(), 0) {}

SloMonitor& SloMonitor::instance() {
  static SloMonitor monitor;
  return monitor;
}

// ---------------------------------------------------------------------------
// WindowedCounter / WindowedMin: a fixed ring of time buckets.  `last_` is
// the highest absolute bucket index seen; advancing zeroes every bucket the
// clock skipped over (bounded by the ring size).  Events older than the
// current bucket land in their own (still-live) bucket, so modest reorder
// between feeding threads does not lose counts.
// ---------------------------------------------------------------------------

void SloMonitor::WindowedCounter::advance(std::int64_t bucket_index) {
  if (bucket_index <= last_) return;
  const std::int64_t steps = std::min<std::int64_t>(
      bucket_index - last_, static_cast<std::int64_t>(kBuckets));
  for (std::int64_t i = 1; i <= steps; ++i) {
    buckets_[static_cast<std::size_t>((last_ + i) % kBuckets)] = 0;
  }
  last_ = bucket_index;
}

void SloMonitor::WindowedCounter::add(std::int64_t bucket_index,
                                      std::uint64_t n) {
  total_ += n;
  if (last_ < 0) last_ = bucket_index;
  advance(bucket_index);
  // A stale event (older than the ring) is counted in the oldest live
  // bucket rather than dropped.
  const std::int64_t oldest = last_ - static_cast<std::int64_t>(kBuckets) + 1;
  const std::int64_t idx = std::max(bucket_index, oldest);
  buckets_[static_cast<std::size_t>(idx % kBuckets)] += n;
}

std::uint64_t SloMonitor::WindowedCounter::sum(std::int64_t now_bucket,
                                               std::size_t buckets_back) const {
  if (last_ < 0) return 0;
  std::uint64_t total = 0;
  const std::size_t span = std::min(buckets_back, kBuckets);
  for (std::size_t i = 0; i < span; ++i) {
    const std::int64_t idx = now_bucket - static_cast<std::int64_t>(i);
    if (idx < 0 || idx > last_) continue;
    if (idx <= last_ - static_cast<std::int64_t>(kBuckets)) break;
    total += buckets_[static_cast<std::size_t>(idx % kBuckets)];
  }
  return total;
}

void SloMonitor::WindowedCounter::reset() {
  buckets_.fill(0);
  last_ = -1;
  total_ = 0;
}

void SloMonitor::WindowedMin::advance(std::int64_t bucket_index) {
  if (bucket_index <= last_) return;
  const std::int64_t steps = std::min<std::int64_t>(
      bucket_index - last_, static_cast<std::int64_t>(kBuckets));
  for (std::int64_t i = 1; i <= steps; ++i) {
    buckets_[static_cast<std::size_t>((last_ + i) % kBuckets)] =
        kDurationInfinite;
  }
  last_ = bucket_index;
}

void SloMonitor::WindowedMin::add(std::int64_t bucket_index, Duration value) {
  if (last_ < 0) {
    buckets_.fill(kDurationInfinite);
    last_ = bucket_index;
  }
  advance(bucket_index);
  const std::int64_t oldest = last_ - static_cast<std::int64_t>(kBuckets) + 1;
  const std::int64_t idx = std::max(bucket_index, oldest);
  Duration& slot = buckets_[static_cast<std::size_t>(idx % kBuckets)];
  slot = std::min(slot, value);
}

Duration SloMonitor::WindowedMin::min(std::int64_t now_bucket,
                                      std::size_t buckets_back) const {
  if (last_ < 0) return kDurationInfinite;
  Duration lowest = kDurationInfinite;
  const std::size_t span = std::min(buckets_back, kBuckets);
  for (std::size_t i = 0; i < span; ++i) {
    const std::int64_t idx = now_bucket - static_cast<std::int64_t>(i);
    if (idx < 0 || idx > last_) continue;
    if (idx <= last_ - static_cast<std::int64_t>(kBuckets)) break;
    lowest =
        std::min(lowest, buckets_[static_cast<std::size_t>(idx % kBuckets)]);
  }
  return lowest;
}

void SloMonitor::WindowedMin::reset() {
  buckets_.fill(kDurationInfinite);
  last_ = -1;
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

void SloMonitor::configure(const std::vector<TopicSpec>& specs) {
  configure_lock_.lock();
  for (const auto& spec : specs) {
    while (slots_.size() <= spec.id) slots_.emplace_back();
    // Under the slot lock: a Backup promoted at runtime re-configures the
    // same topics while deliveries are being accounted.
    TopicSlot& s = slots_[spec.id];
    s.lock.lock();
    s.loss_tolerance = spec.loss_tolerance;
    s.deadline = spec.deadline;
    s.lock.unlock();
  }
  count_.store(slots_.size(), std::memory_order_release);
  configure_lock_.unlock();
}

SloMonitor::TopicSlot* SloMonitor::slot(TopicId topic) {
  if (topic >= count_.load(std::memory_order_acquire)) return nullptr;
  return &slots_[topic];
}

const SloMonitor::TopicSlot* SloMonitor::slot(TopicId topic) const {
  if (topic >= count_.load(std::memory_order_acquire)) return nullptr;
  return &slots_[topic];
}

SloMonitor::ShardSlot& SloMonitor::shard_slot() {
  const std::size_t shard = thread_shard();
  const std::size_t idx = shard == kNoShard || shard >= kMaxShards ? 0 : shard;
  std::size_t seen = max_shard_seen_.load(std::memory_order_relaxed);
  while (idx > seen && !max_shard_seen_.compare_exchange_weak(
                           seen, idx, std::memory_order_relaxed)) {
  }
  return shard_slots_[idx];
}

void SloMonitor::note_now(TimePoint now) {
  TimePoint cur = latest_now_.load(std::memory_order_relaxed);
  while (now > cur && !latest_now_.compare_exchange_weak(
                          cur, now, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Feeds
// ---------------------------------------------------------------------------

void SloMonitor::on_dispatch_executed(TopicId topic, Duration laxity,
                                      TimePoint now) {
  note_now(now);
  const std::int64_t bucket = bucket_of(now);
  const bool miss = laxity < 0;
  if (TopicSlot* s = slot(topic)) {
    s->lock.lock();
    s->dispatches.add(bucket, 1);
    if (miss) s->dispatch_misses.add(bucket, 1);
    s->dispatch_headroom_min.add(bucket, laxity);
    s->lock.unlock();
    // Clamp negative laxity to the recorder's lowest bin; the signed
    // minimum above keeps the true worst value.
    s->dispatch_headroom.record(laxity > 0 ? static_cast<double>(laxity) : 0);
  }
  ShardSlot& shard = shard_slot();
  shard.lock.lock();
  shard.dispatches.add(bucket, 1);
  if (miss) shard.dispatch_misses.add(bucket, 1);
  shard.dispatch_headroom_min.add(bucket, laxity);
  shard.lock.unlock();
}

void SloMonitor::on_replication_executed(TopicId topic, Duration laxity,
                                         TimePoint now) {
  note_now(now);
  const std::int64_t bucket = bucket_of(now);
  const bool miss = laxity < 0;
  if (TopicSlot* s = slot(topic)) {
    s->lock.lock();
    s->replications.add(bucket, 1);
    if (miss) s->replication_misses.add(bucket, 1);
    s->replication_headroom_min.add(bucket, laxity);
    s->lock.unlock();
    s->replication_headroom.record(laxity > 0 ? static_cast<double>(laxity)
                                              : 0);
  }
  ShardSlot& shard = shard_slot();
  shard.lock.lock();
  shard.replications.add(bucket, 1);
  if (miss) shard.replication_misses.add(bucket, 1);
  shard.lock.unlock();
}

bool SloMonitor::on_delivery(TopicId topic, SeqNo seq, Duration e2e,
                             TimePoint now) {
  note_now(now);
  TopicSlot* s = slot(topic);
  if (s == nullptr) return false;
  const std::int64_t bucket = bucket_of(now);
  bool breached_now = false;
  s->lock.lock();
  s->deliveries.add(bucket, 1);
  if (e2e > s->deadline) s->e2e_misses.add(bucket, 1);
  // Consecutive-loss streaks: deliveries of a topic arrive in order except
  // around recovery, so a gap behind the highest seq seen so far is a run
  // of losses.  A later out-of-order fill-in (recovery copy) is not
  // subtracted back -- the account deliberately reports the worst streak
  // ever *observed*, which is the quantity Li bounds.
  if (seq > s->last_seq + 1) {
    const std::uint64_t streak = seq - s->last_seq - 1;
    s->losses_total += streak;
    s->max_loss_streak = std::max(s->max_loss_streak, streak);
    if (s->loss_tolerance != kLossInfinite && streak > s->loss_tolerance &&
        !s->loss_budget_exceeded) {
      // Only the delivery that flips the flag reports the breach (the
      // flight-recorder trigger wants the first occurrence).
      s->loss_budget_exceeded = true;
      breached_now = true;
    }
  }
  s->last_seq = std::max(s->last_seq, seq);
  s->lock.unlock();
  s->e2e_latency.record(static_cast<double>(e2e));
  return breached_now;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

double burn(std::uint64_t events, std::uint64_t misses) {
  if (events == 0) return 0;
  return (static_cast<double>(misses) / static_cast<double>(events)) /
         SloMonitor::kErrorBudget;
}

}  // namespace

TopicSloSnapshot SloMonitor::counts(TopicId topic, TimePoint now) const {
  TopicSloSnapshot snap;
  const TopicSlot* s = slot(topic);
  if (s == nullptr) return snap;
  const std::int64_t bucket = bucket_of(now);
  snap.topic = topic;

  s->lock.lock();
  snap.loss_tolerance = s->loss_tolerance;
  snap.deadline = s->deadline;
  snap.dispatches = s->dispatches.total();
  snap.dispatch_misses = s->dispatch_misses.total();
  snap.replications = s->replications.total();
  snap.replication_misses = s->replication_misses.total();
  snap.deliveries = s->deliveries.total();
  snap.e2e_misses = s->e2e_misses.total();
  snap.losses_total = s->losses_total;
  snap.max_loss_streak = s->max_loss_streak;
  snap.loss_budget_exceeded = s->loss_budget_exceeded;
  snap.dispatches_short = s->dispatches.sum(bucket, kShortBuckets);
  snap.dispatch_misses_short = s->dispatch_misses.sum(bucket, kShortBuckets);
  snap.dispatches_long = s->dispatches.sum(bucket, kBuckets);
  snap.dispatch_misses_long = s->dispatch_misses.sum(bucket, kBuckets);
  snap.replications_short = s->replications.sum(bucket, kShortBuckets);
  snap.replication_misses_short =
      s->replication_misses.sum(bucket, kShortBuckets);
  snap.replications_long = s->replications.sum(bucket, kBuckets);
  snap.replication_misses_long =
      s->replication_misses.sum(bucket, kBuckets);
  snap.deliveries_short = s->deliveries.sum(bucket, kShortBuckets);
  snap.e2e_misses_short = s->e2e_misses.sum(bucket, kShortBuckets);
  snap.deliveries_long = s->deliveries.sum(bucket, kBuckets);
  snap.e2e_misses_long = s->e2e_misses.sum(bucket, kBuckets);
  snap.dispatch_headroom_min =
      s->dispatch_headroom_min.min(bucket, kShortBuckets);
  snap.replication_headroom_min =
      s->replication_headroom_min.min(bucket, kShortBuckets);
  s->lock.unlock();

  snap.dispatch_burn_short =
      burn(snap.dispatches_short, snap.dispatch_misses_short);
  snap.dispatch_burn_long =
      burn(snap.dispatches_long, snap.dispatch_misses_long);
  snap.replication_burn_short =
      burn(snap.replications_short, snap.replication_misses_short);
  snap.replication_burn_long =
      burn(snap.replications_long, snap.replication_misses_long);
  snap.e2e_burn_short = burn(snap.deliveries_short, snap.e2e_misses_short);
  snap.e2e_burn_long = burn(snap.deliveries_long, snap.e2e_misses_long);

  if (snap.loss_tolerance != kLossInfinite) {
    const double li = static_cast<double>(std::max<std::uint32_t>(
        snap.loss_tolerance, 1));
    snap.streak_proximity = static_cast<double>(snap.max_loss_streak) / li;
  }
  return snap;
}

TopicSloSnapshot SloMonitor::snapshot(TopicId topic, TimePoint now) const {
  TopicSloSnapshot snap = counts(topic, now);
  if (const TopicSlot* s = slot(topic)) {
    snap.e2e_latency = s->e2e_latency.snapshot();
    snap.dispatch_headroom = s->dispatch_headroom.snapshot();
    snap.replication_headroom = s->replication_headroom.snapshot();
  }
  return snap;
}

std::vector<TopicSloSnapshot> SloMonitor::snapshot_all(TimePoint now) const {
  std::vector<TopicSloSnapshot> out;
  const std::size_t n = topic_count();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(snapshot(static_cast<TopicId>(i), now));
  }
  return out;
}

std::vector<ShardSloSnapshot> SloMonitor::snapshot_shards(
    TimePoint now) const {
  std::vector<ShardSloSnapshot> out;
  const std::int64_t bucket = bucket_of(now);
  const std::size_t upto = max_shard_seen_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i <= upto; ++i) {
    const ShardSlot& s = shard_slots_[i];
    ShardSloSnapshot snap;
    snap.shard = i;
    s.lock.lock();
    snap.dispatches_short = s.dispatches.sum(bucket, kShortBuckets);
    snap.dispatch_misses_short = s.dispatch_misses.sum(bucket, kShortBuckets);
    snap.replications_short = s.replications.sum(bucket, kShortBuckets);
    snap.replication_misses_short =
        s.replication_misses.sum(bucket, kShortBuckets);
    snap.dispatch_headroom_min =
        s.dispatch_headroom_min.min(bucket, kShortBuckets);
    s.lock.unlock();
    snap.dispatch_burn_short =
        burn(snap.dispatches_short, snap.dispatch_misses_short);
    out.push_back(snap);
  }
  return out;
}

double SloMonitor::metric_value(const AlertRule& rule, TimePoint now) const {
  if (rule.metric == SloMetric::kDegradedMode) {
    return static_cast<double>(
        registry().gauge("frame_degraded_mode").value());
  }
  // Rules take the worst value across topics: max for fires-when-above
  // metrics, min for headroom.
  const bool above = fires_when_above(rule.metric);
  const bool long_window = rule.window > kShortWindow;
  double worst = above ? 0 : std::numeric_limits<double>::infinity();
  bool any = false;
  const std::size_t n = topic_count();
  for (std::size_t i = 0; i < n; ++i) {
    const TopicSloSnapshot snap = counts(static_cast<TopicId>(i), now);
    double v = 0;
    bool applicable = true;
    switch (rule.metric) {
      case SloMetric::kDispatchBurnRate:
        v = long_window ? snap.dispatch_burn_long : snap.dispatch_burn_short;
        break;
      case SloMetric::kReplicationBurnRate:
        v = long_window ? snap.replication_burn_long
                        : snap.replication_burn_short;
        break;
      case SloMetric::kE2eBurnRate:
        v = long_window ? snap.e2e_burn_long : snap.e2e_burn_short;
        break;
      case SloMetric::kLossStreakProximity:
        v = snap.streak_proximity;
        applicable = snap.loss_tolerance != kLossInfinite;
        break;
      case SloMetric::kDispatchHeadroomMin:
        v = static_cast<double>(snap.dispatch_headroom_min);
        applicable = snap.dispatch_headroom_min != kDurationInfinite;
        break;
      case SloMetric::kReplicationHeadroomMin:
        v = static_cast<double>(snap.replication_headroom_min);
        applicable = snap.replication_headroom_min != kDurationInfinite;
        break;
      case SloMetric::kDegradedMode:
        break;
    }
    if (!applicable) continue;
    any = true;
    worst = above ? std::max(worst, v) : std::min(worst, v);
  }
  if (!any) {
    // No applicable topic: a value that can never fire.
    return above ? 0 : std::numeric_limits<double>::infinity();
  }
  return worst;
}

std::vector<AlertState> SloMonitor::evaluate(TimePoint now) {
  // metric_value takes topic spinlocks; compute every value before
  // entering the firing-state section.
  std::vector<AlertState> out;
  out.reserve(rules_.size());
  for (const auto& rule : rules_) {
    AlertState state;
    state.rule = rule;
    state.value = metric_value(rule, now);
    state.firing = fires_when_above(rule.metric)
                       ? state.value > rule.threshold
                       : state.value < rule.threshold;
    out.push_back(std::move(state));
  }
  bool any_critical = false;
  const char* first_critical_transition = nullptr;
  {
    std::lock_guard<std::mutex> guard(firing_mutex_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      AlertState& state = out[i];
      if (!state.firing) {
        firing_since_[i] = 0;
        continue;
      }
      const bool critical = state.rule.severity == Severity::kCritical;
      if (firing_since_[i] == 0) {
        // 0 marks "not firing"; a transition at t=0 still needs a mark.
        firing_since_[i] = now > 0 ? now : 1;
        if (critical && first_critical_transition == nullptr) {
          first_critical_transition = rules_[i].name.c_str();
        }
      }
      if (critical) any_critical = true;
      state.since = firing_since_[i];
    }
    critical_firing_.store(any_critical, std::memory_order_relaxed);
  }
  // Outside every SloMonitor lock: the recorder snapshots the registry and
  // may call back into slo_json (which re-enters evaluate).
  if (first_critical_transition != nullptr) {
    flight_recorder().trigger(TriggerReason::kCriticalAlert,
                              first_critical_transition, now);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

namespace {

void append_duration_field(std::ostringstream& os, const char* key,
                           Duration v) {
  os << '"' << key << "\":";
  if (v == kDurationInfinite) {
    os << "null";
  } else {
    os << v;
  }
}

void append_alerts(std::ostringstream& os,
                   const std::vector<AlertState>& alerts) {
  os << '[';
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const AlertState& a = alerts[i];
    if (i != 0) os << ',';
    os << "{\"name\":\"" << json_escape(a.rule.name) << "\",\"metric\":\""
       << to_string(a.rule.metric) << "\",\"severity\":\""
       << to_string(a.rule.severity) << "\",\"threshold\":"
       << a.rule.threshold << ",\"value\":" << a.value
       << ",\"firing\":" << (a.firing ? "true" : "false")
       << ",\"since_ns\":" << a.since << '}';
  }
  os << ']';
}

}  // namespace

std::string SloMonitor::alerts_json(TimePoint now) {
  if (now == 0) now = latest_now();
  const std::vector<AlertState> alerts = evaluate(now);
  std::ostringstream os;
  os << "{\"now_ns\":" << now << ",\"critical_firing\":"
     << (critical_firing() ? "true" : "false") << ",\"alerts\":";
  append_alerts(os, alerts);
  os << '}';
  return os.str();
}

std::string SloMonitor::slo_json(TimePoint now) {
  if (now == 0) now = latest_now();
  const std::vector<AlertState> alerts = evaluate(now);
  std::ostringstream os;
  os << "{\"now_ns\":" << now
     << ",\"short_window_ns\":" << kShortWindow
     << ",\"long_window_ns\":" << kLongWindow
     << ",\"error_budget\":" << kErrorBudget
     << ",\"critical_firing\":" << (critical_firing() ? "true" : "false")
     << ",\"topics\":[";
  const std::vector<TopicSloSnapshot> topics = snapshot_all(now);
  for (std::size_t i = 0; i < topics.size(); ++i) {
    const TopicSloSnapshot& t = topics[i];
    if (i != 0) os << ',';
    os << "{\"topic\":" << t.topic << ",\"li\":";
    if (t.loss_tolerance == kLossInfinite) {
      os << "null";
    } else {
      os << t.loss_tolerance;
    }
    os << ",\"di_ms\":" << to_millis(t.deadline)
       << ",\"dispatches_short\":" << t.dispatches_short
       << ",\"dispatch_misses_short\":" << t.dispatch_misses_short
       << ",\"dispatch_burn_short\":" << t.dispatch_burn_short
       << ",\"dispatch_burn_long\":" << t.dispatch_burn_long
       << ",\"replications_short\":" << t.replications_short
       << ",\"replication_misses_short\":" << t.replication_misses_short
       << ",\"replication_burn_short\":" << t.replication_burn_short
       << ",\"replication_burn_long\":" << t.replication_burn_long
       << ",\"e2e_burn_short\":" << t.e2e_burn_short
       << ",\"e2e_burn_long\":" << t.e2e_burn_long
       << ",\"worst_streak\":" << t.max_loss_streak
       << ",\"streak_proximity\":" << t.streak_proximity << ',';
    append_duration_field(os, "dispatch_headroom_min_ns",
                          t.dispatch_headroom_min);
    os << ',';
    append_duration_field(os, "replication_headroom_min_ns",
                          t.replication_headroom_min);
    os << ",\"dispatch_headroom_p50_ns\":" << t.dispatch_headroom.p50()
       << ",\"dispatch_headroom_count\":" << t.dispatch_headroom.count()
       << '}';
  }
  os << "],\"shards\":[";
  const std::vector<ShardSloSnapshot> shards = snapshot_shards(now);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardSloSnapshot& s = shards[i];
    if (i != 0) os << ',';
    os << "{\"shard\":" << s.shard
       << ",\"dispatches_short\":" << s.dispatches_short
       << ",\"dispatch_misses_short\":" << s.dispatch_misses_short
       << ",\"dispatch_burn_short\":" << s.dispatch_burn_short << ',';
    append_duration_field(os, "dispatch_headroom_min_ns",
                          s.dispatch_headroom_min);
    os << '}';
  }
  os << "],\"alerts\":";
  append_alerts(os, alerts);
  os << '}';
  return os.str();
}

void SloMonitor::reset() {
  configure_lock_.lock();
  for (auto& s : slots_) {
    s.lock.lock();
    s.dispatches.reset();
    s.dispatch_misses.reset();
    s.replications.reset();
    s.replication_misses.reset();
    s.deliveries.reset();
    s.e2e_misses.reset();
    s.dispatch_headroom_min.reset();
    s.replication_headroom_min.reset();
    s.losses_total = 0;
    s.max_loss_streak = 0;
    s.last_seq = 0;
    s.loss_budget_exceeded = false;
    s.lock.unlock();
    s.e2e_latency.reset();
    s.dispatch_headroom.reset();
    s.replication_headroom.reset();
  }
  for (auto& s : shard_slots_) {
    s.lock.lock();
    s.dispatches.reset();
    s.dispatch_misses.reset();
    s.replications.reset();
    s.replication_misses.reset();
    s.dispatch_headroom_min.reset();
    s.lock.unlock();
  }
  latest_now_.store(0, std::memory_order_relaxed);
  configure_lock_.unlock();
  std::lock_guard<std::mutex> guard(firing_mutex_);
  std::fill(firing_since_.begin(), firing_since_.end(), 0);
  critical_firing_.store(false, std::memory_order_relaxed);
}

}  // namespace frame::obs
