// Observability facade: the global on/off switch, the process-wide
// singletons (MetricsRegistry / Tracer; the per-topic deadline account is
// SloMonitor in obs/slo.hpp), and the instrumentation hooks the engines
// call.
//
// Cost contract: with observability disabled (the default), every hook is
// one relaxed atomic load plus a predictable branch -- measured by the
// bench_all micro pair engine_publish_dispatch_ns (obs off) vs
// engine_publish_dispatch_obs_on_ns.
// With FRAME_OBS=OFF at configure time the hooks compile away entirely.
// Hook bodies resolve their named instruments once via static-local
// references; afterwards a hook touches only its own atomics.
#pragma once

#include <atomic>

#include "common/time.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace frame::obs {

#ifdef FRAME_OBS_DISABLED
inline constexpr bool kCompiled = false;
#else
inline constexpr bool kCompiled = true;
#endif

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// The branch every hook takes first: one relaxed load.
inline bool enabled() {
  if constexpr (!kCompiled) {
    return false;
  } else {
    return detail::g_enabled.load(std::memory_order_relaxed);
  }
}

inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// RAII scope for tests/benches that toggle observability.
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : previous_(enabled()) { set_enabled(on); }
  ~EnabledScope() { set_enabled(previous_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool previous_;
};

namespace detail {
// Which node this thread's engine code is executing on behalf of.  Runtime
// threads (broker loops, frame handlers, publisher/subscriber loops) set it
// once so that span events from node-agnostic engine code get attributed to
// the right track when multi-process dumps are stitched.
inline thread_local NodeId g_thread_node = kInvalidNode;
}  // namespace detail

inline NodeId thread_node() { return detail::g_thread_node; }
inline void set_thread_node(NodeId node) { detail::g_thread_node = node; }

/// "No shard": hooks record into the base-named instruments, exactly the
/// pre-sharding behaviour.  Engine/unit tests and the simulator never set
/// a shard, so their series are unchanged.
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

namespace detail {
// Which Primary shard this thread's engine code is working for.  Shard
// lanes set it so the hot-path instruments (queue depth, stage latencies,
// dispatch/replicate counters) resolve to per-shard series
// ("<base>_shard<k>"), which collect_snapshot folds back into the base
// name at scrape time.  Without it, N shards publishing one global depth
// gauge would clobber each other.
inline thread_local std::size_t g_thread_shard = kNoShard;
}  // namespace detail

inline std::size_t thread_shard() { return detail::g_thread_shard; }
inline void set_thread_shard(std::size_t shard) {
  detail::g_thread_shard = shard;
}

/// RAII node attribution for a runtime thread or frame handler.
class ThreadNodeScope {
 public:
  explicit ThreadNodeScope(NodeId node) : previous_(thread_node()) {
    set_thread_node(node);
  }
  ~ThreadNodeScope() { set_thread_node(previous_); }
  ThreadNodeScope(const ThreadNodeScope&) = delete;
  ThreadNodeScope& operator=(const ThreadNodeScope&) = delete;

 private:
  NodeId previous_;
};

/// RAII shard attribution for a broker shard lane.
class ShardScope {
 public:
  explicit ShardScope(std::size_t shard) : previous_(thread_shard()) {
    set_thread_shard(shard);
  }
  ~ShardScope() { set_thread_shard(previous_); }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  std::size_t previous_;
};

MetricsRegistry& registry();
Tracer& tracer();

/// Zeroes every instrument, the tracer ring and the SLO monitor (its topic
/// table is kept).  For scoping a measurement run.
void reset_all();

// ---------------------------------------------------------------------------
// Instrumentation hooks.  Each public hook is an inline wrapper whose
// disabled path is exactly the enabled() load + branch; the enabled path
// tail-calls the out-of-line recording body in hooks.cpp.
// ---------------------------------------------------------------------------
namespace detail {
void publish_slow(TopicId topic, SeqNo seq, TimePoint now,
                  std::uint64_t trace_id);
void proxy_admit_slow(TopicId topic, SeqNo seq, TimePoint now,
                      Duration delta_pb, bool recovery,
                      std::uint64_t trace_id);
void job_enqueue_slow(TopicId topic, SeqNo seq, TimePoint now, bool replicate,
                      Duration dd_slack, Duration dr_slack,
                      std::uint64_t trace_id);
void dispatch_executed_slow(TopicId topic, SeqNo seq, TimePoint now,
                            Duration slack, std::uint64_t trace_id);
void replicate_executed_slow(TopicId topic, SeqNo seq, TimePoint now,
                             Duration slack, std::uint64_t trace_id);
void dispatch_stage_slow(TopicId topic, SeqNo seq, TimePoint done,
                         Duration queue_delay, Duration service,
                         std::uint64_t trace_id);
void replicate_stage_slow(Duration queue_delay, Duration service);
void copy_dropped_slow(TopicId topic, SeqNo seq, TimePoint now);
void delivered_slow(TopicId topic, SeqNo seq, TimePoint now, Duration e2e,
                    std::uint64_t trace_id);
void job_queue_depth_slow(std::size_t depth);
void replication_cancelled_drop_slow();
void backup_replica_stored_slow(TopicId topic, SeqNo seq, TimePoint now,
                                std::uint64_t trace_id);
void backup_prune_applied_slow(TopicId topic);
void tcp_frame_sent_slow(std::size_t bytes);
void tcp_frame_received_slow(std::size_t bytes);
void tcp_bytes_received_slow(std::size_t bytes);
void tcp_batch_written_slow(std::size_t frames, std::size_t bytes);
void tcp_send_queue_depth_slow(std::size_t bytes);
void tcp_reconnect_attempt_slow();
void tcp_connect_latency_slow(Duration latency);
void tcp_backpressure_drop_slow();
void tcp_protocol_error_slow();
void send_backpressure_slow(NodeId node);
void crash_injected_slow(NodeId node, TimePoint now);
void failover_detected_slow(NodeId node, TimePoint now);
void promotion_complete_slow(NodeId node, TimePoint now,
                             std::size_t recovered);
void publisher_redirected_slow(NodeId node, TimePoint now);
void retention_replay_slow(NodeId node, TimePoint now,
                           Duration replay_duration, std::size_t resent);
void fault_injected_slow(std::uint8_t kind);
void wire_corrupt_frame_slow(NodeId node);
void broker_duplicate_suppressed_slow(TopicId topic, SeqNo seq);
void backup_lost_slow(NodeId node, TimePoint now);
void backup_joined_slow(NodeId node, TimePoint now);
}  // namespace detail

namespace hooks {

/// Publisher proxy created a message (tc stamp).
inline void publish(TopicId topic, SeqNo seq, TimePoint now,
                    std::uint64_t trace_id = 0) {
  if (enabled()) detail::publish_slow(topic, seq, now, trace_id);
}

/// Message Proxy admitted an arrival; `delta_pb` = tp - tc.
inline void proxy_admit(TopicId topic, SeqNo seq, TimePoint now,
                        Duration delta_pb, bool recovery,
                        std::uint64_t trace_id = 0) {
  if (enabled()) {
    detail::proxy_admit_slow(topic, seq, now, delta_pb, recovery, trace_id);
  }
}

/// Job Generator enqueued a job; slacks are the remaining relative
/// deadlines (Dd/Dr after subtracting the observed ΔPB).
inline void job_enqueue(TopicId topic, SeqNo seq, TimePoint now,
                        bool replicate, Duration dd_slack, Duration dr_slack,
                        std::uint64_t trace_id = 0) {
  if (enabled()) {
    detail::job_enqueue_slow(topic, seq, now, replicate, dd_slack, dr_slack,
                             trace_id);
  }
}

/// A Dispatcher executed the dispatch job with `slack` remaining until the
/// absolute Lemma-2 deadline (kDurationInfinite = execution time unknown).
inline void dispatch_executed(TopicId topic, SeqNo seq, TimePoint now,
                              Duration slack, std::uint64_t trace_id = 0) {
  if (enabled()) {
    detail::dispatch_executed_slow(topic, seq, now, slack, trace_id);
  }
}

/// A Replicator shipped the copy with `slack` remaining until the absolute
/// Lemma-1 deadline.
inline void replicate_executed(TopicId topic, SeqNo seq, TimePoint now,
                               Duration slack, std::uint64_t trace_id = 0) {
  if (enabled()) {
    detail::replicate_executed_slow(topic, seq, now, slack, trace_id);
  }
}

/// Per-stage dispatch attribution: `queue_delay` = time the dispatch job
/// sat in the EDF queue (execute start - release), `service` = execute
/// start to delivery handoff finished at `done`.  Records both log-binned
/// histograms and emits the kDispatchDone span, so queue_delay + service
/// equals the stitched job-enqueue -> dispatch-done span per message.
inline void dispatch_stage(TopicId topic, SeqNo seq, TimePoint done,
                           Duration queue_delay, Duration service,
                           std::uint64_t trace_id = 0) {
  if (enabled()) {
    detail::dispatch_stage_slow(topic, seq, done, queue_delay, service,
                                trace_id);
  }
}

/// Same split for replicate jobs (histograms only; no extra span — the
/// kReplicated span already marks the ship time).
inline void replicate_stage(Duration queue_delay, Duration service) {
  if (enabled()) detail::replicate_stage_slow(queue_delay, service);
}

/// A job referenced a copy no longer in the buffer, or an undelivered copy
/// was overwritten.
inline void copy_dropped(TopicId topic, SeqNo seq, TimePoint now) {
  if (enabled()) detail::copy_dropped_slow(topic, seq, now);
}

/// Subscriber got the first copy of (topic, seq); `e2e` = ts - tc.
inline void delivered(TopicId topic, SeqNo seq, TimePoint now, Duration e2e,
                      std::uint64_t trace_id = 0) {
  if (enabled()) detail::delivered_slow(topic, seq, now, e2e, trace_id);
}

/// Job queue state after a push/pop.
inline void job_queue_depth(std::size_t depth) {
  if (enabled()) detail::job_queue_depth_slow(depth);
}

/// A cancelled replicate job was dropped at pop time.
inline void replication_cancelled_drop() {
  if (enabled()) detail::replication_cancelled_drop_slow();
}

/// Backup Buffer activity.
inline void backup_replica_stored(TopicId topic, SeqNo seq, TimePoint now,
                                  std::uint64_t trace_id = 0) {
  if (enabled()) detail::backup_replica_stored_slow(topic, seq, now, trace_id);
}
inline void backup_prune_applied(TopicId topic) {
  if (enabled()) detail::backup_prune_applied_slow(topic);
}

/// TCP bus egress.
inline void tcp_frame_sent(std::size_t bytes) {
  if (enabled()) detail::tcp_frame_sent_slow(bytes);
}

/// TCP transport ingress: one reassembled frame (header included).
inline void tcp_frame_received(std::size_t bytes) {
  if (enabled()) detail::tcp_frame_received_slow(bytes);
}

/// Raw bytes drained from a socket by the reactor.
inline void tcp_bytes_received(std::size_t bytes) {
  if (enabled()) detail::tcp_bytes_received_slow(bytes);
}

/// One writev flushed `frames` complete frames (`bytes` on the wire).
inline void tcp_batch_written(std::size_t frames, std::size_t bytes) {
  if (enabled()) detail::tcp_batch_written_slow(frames, bytes);
}

/// Outbound queue depth (bytes) of a connection after enqueue/flush.
inline void tcp_send_queue_depth(std::size_t bytes) {
  if (enabled()) detail::tcp_send_queue_depth_slow(bytes);
}

/// A client link retried its connect after a failure (backoff expired).
inline void tcp_reconnect_attempt() {
  if (enabled()) detail::tcp_reconnect_attempt_slow();
}

/// Wall time one successful connect() took, handshake included.
inline void tcp_connect_latency(Duration latency) {
  if (enabled()) detail::tcp_connect_latency_slow(latency);
}

/// A frame was rejected at the send side because the queue is full.
inline void tcp_backpressure_drop() {
  if (enabled()) detail::tcp_backpressure_drop_slow();
}

/// A peer violated the wire protocol (e.g. oversized frame).
inline void tcp_protocol_error() {
  if (enabled()) detail::tcp_protocol_error_slow();
}

/// The runtime observed kCapacity from Bus::try_send (load shed).
inline void send_backpressure(NodeId node) {
  if (enabled()) detail::send_backpressure_slow(node);
}

// Failover timeline (runtime).  The measured x is derived as
// redirect_at - crash_at; the retention replay duration is reported by the
// publisher that performed it.
inline void crash_injected(NodeId node, TimePoint now) {
  if (enabled()) detail::crash_injected_slow(node, now);
}
inline void failover_detected(NodeId node, TimePoint now) {
  if (enabled()) detail::failover_detected_slow(node, now);
}
inline void promotion_complete(NodeId node, TimePoint now,
                               std::size_t recovered) {
  if (enabled()) detail::promotion_complete_slow(node, now, recovered);
}
inline void publisher_redirected(NodeId node, TimePoint now) {
  if (enabled()) detail::publisher_redirected_slow(node, now);
}
inline void retention_replay(NodeId node, TimePoint now,
                             Duration replay_duration, std::size_t resent) {
  if (enabled()) {
    detail::retention_replay_slow(node, now, replay_duration, resent);
  }
}

/// FaultyBus injected a scripted fault; `kind` is the FaultKind value
/// (net/faulty_bus.hpp) — one frame_fault_injected_<kind>_total counter
/// per kind.
inline void fault_injected(std::uint8_t kind) {
  if (enabled()) detail::fault_injected_slow(kind);
}

/// An endpoint rejected an inbound frame whose CRC32C failed (corrupted
/// or truncated on the wire); the frame never reached a decoder.
inline void wire_corrupt_frame(NodeId node) {
  if (enabled()) detail::wire_corrupt_frame_slow(node);
}

/// A broker suppressed a (topic, seq) it had already dispatched or queued
/// for dispatch (retention-replay dedup at the promoted Backup).
inline void broker_duplicate_suppressed(TopicId topic, SeqNo seq) {
  if (enabled()) detail::broker_duplicate_suppressed_slow(topic, seq);
}

// Degraded-mode timeline: the Primary's detector lost / regained its
// Backup.  While lost, replication is suspended and the degraded gauge
// reads 1.
inline void backup_lost(NodeId node, TimePoint now) {
  if (enabled()) detail::backup_lost_slow(node, now);
}
inline void backup_joined(NodeId node, TimePoint now) {
  if (enabled()) detail::backup_joined_slow(node, now);
}

}  // namespace hooks
}  // namespace frame::obs
