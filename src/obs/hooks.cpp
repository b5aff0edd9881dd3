// Out-of-line bodies of the instrumentation hooks.  Only reached with
// observability enabled.  Named instruments are resolved once per process
// via static-local references; after that each body touches only its own
// atomics (plus the tracer ring / SLO monitor slots).
#include "obs/obs.hpp"

#include <array>
#include <string>

#include "core/topic_sharding.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"

namespace frame::obs {

MetricsRegistry& registry() { return MetricsRegistry::instance(); }

Tracer& tracer() {
  static Tracer t;
  return t;
}

void reset_all() {
  registry().reset();
  tracer().clear();
  slo().reset();
}

namespace detail {

namespace {

template <typename T>
T& resolve_instrument(const std::string& name);
template <>
Counter& resolve_instrument<Counter>(const std::string& name) {
  return registry().counter(name);
}
template <>
Gauge& resolve_instrument<Gauge>(const std::string& name) {
  return registry().gauge(name);
}
template <>
LatencyRecorder& resolve_instrument<LatencyRecorder>(const std::string& name) {
  return registry().latency(name);
}

/// A hot-path instrument that splits into one series per Primary shard.
/// Threads without a ShardScope (engine unit tests, the simulator, the
/// single-shard runtime before start) hit the base-named instrument; a
/// shard lane hits "<base>_shard<k>".  collect_snapshot folds the shard
/// series back into the base name at scrape time, so every exporter and
/// existing consumer keeps seeing the aggregate under the old name.
/// Resolution happens once per (call site, shard): slot pointers are
/// cached in atomics, so the steady state is one relaxed load extra over
/// the old static-local reference.
template <typename T>
class PerShard {
 public:
  explicit PerShard(const char* base) : base_(base) {}

  T& get() {
    const std::size_t shard = thread_shard();
    const std::size_t idx =
        shard == kNoShard || shard >= kMaxShards ? 0 : shard + 1;
    T* p = slots_[idx].load(std::memory_order_acquire);
    if (p == nullptr) {
      std::string name(base_);
      if (idx != 0) name += "_shard" + std::to_string(idx - 1);
      p = &resolve_instrument<T>(name);
      // Racing resolvers store the same registry reference; last write
      // wins harmlessly.
      slots_[idx].store(p, std::memory_order_release);
    }
    return *p;
  }

 private:
  const char* base_;
  std::array<std::atomic<T*>, kMaxShards + 1> slots_{};
};

void span(SpanKind kind, TopicId topic, SeqNo seq, NodeId node, TimePoint at,
          Duration delta_pb = kDurationInfinite,
          Duration dd_slack = kDurationInfinite,
          Duration dr_slack = kDurationInfinite,
          std::uint64_t trace_id = 0) {
  SpanEvent ev;
  ev.kind = kind;
  ev.topic = topic;
  ev.seq = seq;
  // Engines are node-agnostic; attribute their spans to the node the
  // calling runtime thread declared via ThreadNodeScope.
  ev.node = node == kInvalidNode ? thread_node() : node;
  ev.trace_id = trace_id;
  ev.at = at;
  ev.delta_pb = delta_pb;
  ev.dd_slack = dd_slack;
  ev.dr_slack = dr_slack;
  tracer().record(ev);
}

}  // namespace

void publish_slow(TopicId topic, SeqNo seq, TimePoint now,
                  std::uint64_t trace_id) {
  static Counter& created = registry().counter("frame_publisher_created_total");
  created.add();
  span(SpanKind::kPublish, topic, seq, kInvalidNode, now, kDurationInfinite,
       kDurationInfinite, kDurationInfinite, trace_id);
}

void proxy_admit_slow(TopicId topic, SeqNo seq, TimePoint now,
                      Duration delta_pb, bool recovery,
                      std::uint64_t trace_id) {
  static PerShard<Counter> admits("frame_proxy_admits_total");
  static Counter& recoveries =
      registry().counter("frame_proxy_recovery_admits_total");
  static PerShard<LatencyRecorder> pb("frame_delta_pb_ns");
  admits.get().add();
  if (recovery) recoveries.add();
  if (delta_pb >= 0) pb.get().record(static_cast<double>(delta_pb));
  span(SpanKind::kProxyAdmit, topic, seq, kInvalidNode, now, delta_pb,
       kDurationInfinite, kDurationInfinite, trace_id);
}

void job_enqueue_slow(TopicId topic, SeqNo seq, TimePoint now, bool replicate,
                      Duration dd_slack, Duration dr_slack,
                      std::uint64_t trace_id) {
  static PerShard<Counter> dispatch_jobs("frame_dispatch_jobs_total");
  static PerShard<Counter> replicate_jobs("frame_replicate_jobs_total");
  (replicate ? replicate_jobs : dispatch_jobs).get().add();
  span(SpanKind::kJobEnqueue, topic, seq, kInvalidNode, now,
       kDurationInfinite, dd_slack, dr_slack, trace_id);
}

void dispatch_executed_slow(TopicId topic, SeqNo seq, TimePoint now,
                            Duration slack, std::uint64_t trace_id) {
  static PerShard<Counter> dispatches("frame_dispatches_total");
  dispatches.get().add();
  span(SpanKind::kDispatchStart, topic, seq, kInvalidNode, now,
       kDurationInfinite, slack, kDurationInfinite, trace_id);
  if (slack != kDurationInfinite) {
    slo().on_dispatch_executed(topic, slack, now);
    // Trigger last, after the span and the account: the frozen bundle
    // must contain the very event that fired it.
    if (slack < 0) {
      flight_recorder().trigger(TriggerReason::kLemma2Miss, "", now);
    }
  }
}

void replicate_executed_slow(TopicId topic, SeqNo seq, TimePoint now,
                             Duration slack, std::uint64_t trace_id) {
  static PerShard<Counter> replications("frame_replications_total");
  replications.get().add();
  span(SpanKind::kReplicated, topic, seq, kInvalidNode, now,
       kDurationInfinite, kDurationInfinite, slack, trace_id);
  if (slack != kDurationInfinite) {
    slo().on_replication_executed(topic, slack, now);
    if (slack < 0) {
      flight_recorder().trigger(TriggerReason::kLemma1Miss, "", now);
    }
  }
}

void dispatch_stage_slow(TopicId topic, SeqNo seq, TimePoint done,
                         Duration queue_delay, Duration service,
                         std::uint64_t trace_id) {
  static PerShard<LatencyRecorder> qd("frame_dispatch_queue_delay_ns");
  static PerShard<LatencyRecorder> svc("frame_dispatch_service_ns");
  if (queue_delay >= 0) qd.get().record(static_cast<double>(queue_delay));
  if (service >= 0) svc.get().record(static_cast<double>(service));
  // done == release + queue_delay + service, so the stitched
  // job-enqueue -> dispatch-done span equals the histogram sum exactly.
  span(SpanKind::kDispatchDone, topic, seq, kInvalidNode, done,
       kDurationInfinite, kDurationInfinite, kDurationInfinite, trace_id);
}

void replicate_stage_slow(Duration queue_delay, Duration service) {
  static PerShard<LatencyRecorder> qd("frame_replicate_queue_delay_ns");
  static PerShard<LatencyRecorder> svc("frame_replicate_service_ns");
  if (queue_delay >= 0) qd.get().record(static_cast<double>(queue_delay));
  if (service >= 0) svc.get().record(static_cast<double>(service));
}

void copy_dropped_slow(TopicId topic, SeqNo seq, TimePoint now) {
  static Counter& drops = registry().counter("frame_copies_dropped_total");
  drops.add();
  span(SpanKind::kDropped, topic, seq, kInvalidNode, now);
}

void delivered_slow(TopicId topic, SeqNo seq, TimePoint now, Duration e2e,
                    std::uint64_t trace_id) {
  static Counter& deliveries = registry().counter("frame_deliveries_total");
  static LatencyRecorder& latency = registry().latency("frame_e2e_latency_ns");
  deliveries.add();
  latency.record(static_cast<double>(e2e));
  span(SpanKind::kDelivered, topic, seq, kInvalidNode, now, kDurationInfinite,
       e2e, kDurationInfinite, trace_id);
  if (slo().on_delivery(topic, seq, e2e, now)) {
    flight_recorder().trigger(TriggerReason::kLossStreakBreach, "", now);
  }
}

void job_queue_depth_slow(std::size_t depth) {
  static PerShard<Gauge> gauge("frame_job_queue_depth");
  static PerShard<Gauge> peak("frame_job_queue_depth_peak");
  gauge.get().set(static_cast<std::int64_t>(depth));
  peak.get().set_max(static_cast<std::int64_t>(depth));
}

void replication_cancelled_drop_slow() {
  static PerShard<Counter> drops("frame_replications_cancelled_total");
  drops.get().add();
}

void backup_replica_stored_slow(TopicId topic, SeqNo seq, TimePoint now,
                                std::uint64_t trace_id) {
  static Counter& replicas = registry().counter("frame_backup_replicas_total");
  replicas.add();
  span(SpanKind::kBackupStored, topic, seq, kInvalidNode, now,
       kDurationInfinite, kDurationInfinite, kDurationInfinite, trace_id);
}

void backup_prune_applied_slow(TopicId topic) {
  static Counter& prunes = registry().counter("frame_backup_prunes_total");
  prunes.add();
  (void)topic;
}

void tcp_frame_sent_slow(std::size_t bytes) {
  static Counter& frames = registry().counter("frame_tcp_frames_sent_total");
  static Counter& sent_bytes = registry().counter("frame_tcp_bytes_sent_total");
  frames.add();
  sent_bytes.add(bytes);
}

void tcp_frame_received_slow(std::size_t bytes) {
  static Counter& frames =
      registry().counter("frame_tcp_frames_received_total");
  frames.add();
  (void)bytes;
}

void tcp_bytes_received_slow(std::size_t bytes) {
  static Counter& received =
      registry().counter("frame_tcp_bytes_received_total");
  received.add(bytes);
}

void tcp_batch_written_slow(std::size_t frames, std::size_t bytes) {
  static Counter& batches = registry().counter("frame_tcp_writev_calls_total");
  static Counter& batched =
      registry().counter("frame_tcp_batched_frames_total");
  static Counter& wire_bytes =
      registry().counter("frame_tcp_wire_bytes_written_total");
  batches.add();
  batched.add(frames);
  wire_bytes.add(bytes);
}

void tcp_send_queue_depth_slow(std::size_t bytes) {
  static Gauge& depth = registry().gauge("frame_tcp_send_queue_bytes");
  static Gauge& peak = registry().gauge("frame_tcp_send_queue_bytes_peak");
  depth.set(static_cast<std::int64_t>(bytes));
  peak.set_max(static_cast<std::int64_t>(bytes));
}

void tcp_reconnect_attempt_slow() {
  static Counter& attempts =
      registry().counter("frame_tcp_reconnect_attempts_total");
  attempts.add();
}

void tcp_connect_latency_slow(Duration latency) {
  static LatencyRecorder& connect =
      registry().latency("frame_tcp_connect_latency_ns");
  if (latency >= 0) connect.record(static_cast<double>(latency));
}

void tcp_backpressure_drop_slow() {
  static Counter& drops =
      registry().counter("frame_tcp_backpressure_drops_total");
  drops.add();
}

void tcp_protocol_error_slow() {
  static Counter& errors =
      registry().counter("frame_tcp_protocol_errors_total");
  errors.add();
}

void send_backpressure_slow(NodeId node) {
  static Counter& sheds =
      registry().counter("frame_runtime_send_backpressure_total");
  sheds.add();
  (void)node;
}

void crash_injected_slow(NodeId node, TimePoint now) {
  static Gauge& at = registry().gauge("frame_failover_crash_at_ns");
  at.set(now);
  flight_recorder().trigger(TriggerReason::kFailover, "crash-injected", now);
  span(SpanKind::kCrash, kInvalidTopic, 0, node, now);
}

void failover_detected_slow(NodeId node, TimePoint now) {
  static Gauge& at = registry().gauge("frame_failover_detected_at_ns");
  at.set_max(now);
  flight_recorder().trigger(TriggerReason::kFailover, "detector", now);
  span(SpanKind::kFailoverDetected, kInvalidTopic, 0, node, now);
}

void promotion_complete_slow(NodeId node, TimePoint now,
                             std::size_t recovered) {
  static Gauge& at = registry().gauge("frame_failover_promotion_at_ns");
  static Counter& copies = registry().counter("frame_recovery_copies_total");
  at.set_max(now);
  copies.add(recovered);
  span(SpanKind::kPromotion, kInvalidTopic, 0, node, now);
}

void publisher_redirected_slow(NodeId node, TimePoint now) {
  static Gauge& at = registry().gauge("frame_failover_redirect_at_ns");
  static Gauge& crash_at = registry().gauge("frame_failover_crash_at_ns");
  static LatencyRecorder& x = registry().latency("frame_failover_x_ns");
  at.set_max(now);
  // The paper's x: crash .. publisher redirect, per publisher.
  const std::int64_t crashed_at = crash_at.value();
  if (crashed_at > 0 && now > crashed_at) {
    x.record(static_cast<double>(now - crashed_at));
  }
  span(SpanKind::kRedirect, kInvalidTopic, 0, node, now);
}

void retention_replay_slow(NodeId node, TimePoint now,
                           Duration replay_duration, std::size_t resent) {
  static Counter& resends = registry().counter("frame_retention_resent_total");
  static LatencyRecorder& replay =
      registry().latency("frame_failover_replay_ns");
  resends.add(resent);
  if (replay_duration >= 0) {
    replay.record(static_cast<double>(replay_duration));
  }
  span(SpanKind::kRetentionReplay, kInvalidTopic, 0, node, now);
}

void fault_injected_slow(std::uint8_t kind) {
  // Indexed by FaultKind (net/faulty_bus.hpp); obs stays below net in the
  // layering, so the names are spelled out here rather than derived.
  static Counter* const by_kind[] = {
      &registry().counter("frame_fault_injected_drop_total"),
      &registry().counter("frame_fault_injected_delay_total"),
      &registry().counter("frame_fault_injected_duplicate_total"),
      &registry().counter("frame_fault_injected_reorder_total"),
      &registry().counter("frame_fault_injected_corrupt_total"),
      &registry().counter("frame_fault_injected_truncate_total"),
      &registry().counter("frame_fault_injected_blackhole_total"),
      &registry().counter("frame_fault_injected_partition_total"),
  };
  static Counter& other = registry().counter("frame_fault_injected_total");
  other.add();
  if (kind < sizeof(by_kind) / sizeof(by_kind[0])) by_kind[kind]->add();
}

void wire_corrupt_frame_slow(NodeId node) {
  static Counter& rejected =
      registry().counter("frame_wire_corrupt_rejected_total");
  rejected.add();
  (void)node;
}

void broker_duplicate_suppressed_slow(TopicId topic, SeqNo seq) {
  static Counter& suppressed =
      registry().counter("frame_broker_duplicates_suppressed_total");
  suppressed.add();
  (void)topic;
  (void)seq;
}

void backup_lost_slow(NodeId node, TimePoint now) {
  static Counter& losses = registry().counter("frame_backup_lost_total");
  static Gauge& degraded = registry().gauge("frame_degraded_mode");
  losses.add();
  degraded.set(1);
  span(SpanKind::kCrash, kInvalidTopic, 0, node, now);
}

void backup_joined_slow(NodeId node, TimePoint now) {
  static Counter& joins = registry().counter("frame_backup_joined_total");
  static Gauge& degraded = registry().gauge("frame_degraded_mode");
  joins.add();
  degraded.set(0);
  (void)node;
  (void)now;
}

}  // namespace detail
}  // namespace frame::obs
