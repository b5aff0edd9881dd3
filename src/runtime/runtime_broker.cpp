#include "runtime/runtime_broker.hpp"

#include <algorithm>
#include <chrono>

#include "broker/failure_detector.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"

namespace frame::runtime {

namespace {
void accumulate(PrimaryEngine::Stats& total, const PrimaryEngine::Stats& s) {
  total.arrivals += s.arrivals;
  total.recovery_arrivals += s.recovery_arrivals;
  total.dispatch_jobs_created += s.dispatch_jobs_created;
  total.replicate_jobs_created += s.replicate_jobs_created;
  total.dispatches_executed += s.dispatches_executed;
  total.replications_executed += s.replications_executed;
  total.replications_aborted += s.replications_aborted;
  total.replicate_jobs_cancelled += s.replicate_jobs_cancelled;
  total.prune_requests += s.prune_requests;
  total.stale_jobs += s.stale_jobs;
  total.overwritten_undelivered += s.overwritten_undelivered;
}
}  // namespace

RuntimeBroker::RuntimeBroker(Bus& bus, const MonotonicClock& clock,
                             Options options, std::vector<TopicSpec> topics,
                             TimingParams params)
    : bus_(bus),
      clock_(clock),
      options_(options),
      topics_(std::move(topics)),
      params_(params),
      peer_(options.peer) {
  options_.shards = std::clamp<std::size_t>(options_.shards, 1, kMaxShards);
  shards_.reserve(options_.shards);
  for (std::size_t k = 0; k < options_.shards; ++k) {
    shards_.push_back(std::make_unique<Shard>(options_.shard_inbox_capacity));
  }

  if (options_.start_as_primary) {
    for (auto& shard : shards_) {
      shard->engine = std::make_unique<PrimaryEngine>(options_.broker,
                                                      topics_, params_);
    }
    is_primary_.store(true, std::memory_order_release);
    has_peer_.store(true, std::memory_order_release);
  } else {
    backup_ = std::make_unique<BackupEngine>(options_.broker);
    backup_->configure(topics_.size());
  }

  bus_.register_endpoint(options_.node,
                         [this](NodeId from, std::vector<std::uint8_t> frame) {
                           on_frame(from, std::move(frame));
                         });
}

RuntimeBroker::~RuntimeBroker() { stop(); }

void RuntimeBroker::subscribe(TopicId topic, NodeId subscriber) {
  std::lock_guard lock(mutex_);
  subscriptions_.emplace_back(topic, subscriber);
  // Only the owning shard's engine ever sees this topic's traffic, so only
  // it needs the subscription.
  Shard& shard = *shards_[shard_index(topic)];
  std::lock_guard shard_lock(shard.mutex);
  if (shard.engine) shard.engine->subscribe(topic, subscriber);
}

void RuntimeBroker::start() {
  stop_.store(false, std::memory_order_release);
  {
    // The bus endpoint is live from construction, so inbound frames may
    // already be touching last_peer_reply_.
    std::lock_guard lock(mutex_);
    last_peer_reply_ = clock_.now();
  }
  // Spread the delivery threads across shards, at least one lane each.
  // shards == 1 keeps the original pool-of-3 shape.
  const std::size_t shards = shards_.size();
  const std::size_t threads =
      std::max(options_.delivery_threads, shards);
  for (std::size_t k = 0; k < shards; ++k) {
    const std::size_t lanes =
        threads / shards + (k < threads % shards ? 1 : 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      delivery_pool_.emplace_back([this, k] { shard_loop(k); });
    }
  }
  // Both roles watch their peer: the Backup to promote itself, the Primary
  // to stop replicating to (and blocking on) a dead Backup.
  if (peer_.load(std::memory_order_acquire) != kInvalidNode) {
    detector_ = std::thread([this] { detector_loop(); });
  }
}

void RuntimeBroker::stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->cv.notify_all();
  }
  for (auto& worker : delivery_pool_) {
    if (worker.joinable()) worker.join();
  }
  delivery_pool_.clear();
  if (detector_.joinable()) detector_.join();
}

void RuntimeBroker::crash() {
  crashed_.store(true, std::memory_order_release);
  bus_.crash(options_.node);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->cv.notify_all();
  }
}

PrimaryEngine::Stats RuntimeBroker::primary_stats() const {
  PrimaryEngine::Stats total{};
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    if (shard->engine) accumulate(total, shard->engine->stats());
  }
  return total;
}

BackupEngine::Stats RuntimeBroker::backup_stats() const {
  std::lock_guard lock(mutex_);
  return backup_ ? backup_->stats() : BackupEngine::Stats{};
}

void RuntimeBroker::send_message(NodeId to, WireType type,
                                 const Message& msg) {
  bus_.send(options_.node, to, encode_message_frame(type, msg));
}

void RuntimeBroker::on_frame(NodeId from, std::vector<std::uint8_t> frame) {
  if (crashed_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    return;
  }
  // Attribute any spans recorded while handling this frame (engine code
  // is node-agnostic) to this broker, whatever thread the bus used.
  obs::ThreadNodeScope node_scope(options_.node);
  // CRC32C gate: a corrupted or truncated frame is rejected before any
  // dispatch on the type tag, so garbage never reaches an engine.
  if (!frame_checksum_ok(frame)) {
    corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
    obs::hooks::wire_corrupt_frame(options_.node);
    return;
  }
  const auto type = peek_type(frame);
  if (!type.has_value()) return;
  switch (*type) {
    case WireType::kPublish:
    case WireType::kResend:
      on_publish_frame(std::move(frame));
      break;
    case WireType::kReplicate: {
      if (auto msg = decode_message_frame(frame)) {
        std::lock_guard lock(mutex_);
        if (backup_) backup_->on_replica(*msg, clock_.now());
      }
      break;
    }
    case WireType::kPrune: {
      if (auto prune = decode_prune_frame(frame)) {
        std::lock_guard lock(mutex_);
        if (backup_) backup_->on_prune(prune->topic, prune->seq);
      }
      break;
    }
    case WireType::kPoll: {
      // An inbound poll is itself proof the peer is alive (a restarted
      // Backup polls before its Hello settles).
      if (from == peer_.load(std::memory_order_acquire)) {
        std::lock_guard lock(mutex_);
        if (clock_.now() > last_peer_reply_) last_peer_reply_ = clock_.now();
      }
      bus_.send(options_.node, from,
                encode_control_frame(WireType::kPollReply));
      break;
    }
    case WireType::kPollReply: {
      std::lock_guard lock(mutex_);
      last_peer_reply_ = clock_.now();
      break;
    }
    case WireType::kSubscribe: {
      if (auto sub = decode_subscribe_frame(frame)) {
        subscribe(sub->topic, sub->subscriber);
      }
      break;
    }
    case WireType::kHello: {
      const auto hello = decode_hello_frame(frame);
      if (!hello.has_value() ||
          hello->role != static_cast<std::uint8_t>(NodeRole::kBackupBroker)) {
        break;
      }
      // A fresh Backup joined: ship the sync set (gathered across every
      // shard engine) and resume replication.
      std::vector<Message> sync;
      {
        std::lock_guard lock(mutex_);
        for (auto& shard : shards_) {
          std::lock_guard shard_lock(shard->mutex);
          if (shard->engine) {
            auto part = shard->engine->backup_sync_set();
            sync.insert(sync.end(), part.begin(), part.end());
          }
        }
        peer_.store(hello->node, std::memory_order_release);
        // The Hello is proof of life; without this the detector could
        // re-suspect the new Backup before its first poll reply lands.
        if (clock_.now() > last_peer_reply_) last_peer_reply_ = clock_.now();
      }
      for (const auto& msg : sync) {
        send_message(hello->node, WireType::kReplicate, msg);
      }
      const bool was_degraded = !has_peer_.load(std::memory_order_acquire);
      has_peer_.store(true, std::memory_order_release);
      if (was_degraded) {
        obs::hooks::backup_joined(hello->node, clock_.now());
      }
      FRAME_LOG_INFO("broker %u: backup %u joined, synced %zu copies",
                     options_.node, hello->node, sync.size());
      break;
    }
    default:
      break;
  }
}

void RuntimeBroker::on_publish_frame(std::vector<std::uint8_t> frame) {
  if (is_primary_.load(std::memory_order_acquire)) {
    // Primary fast path: no decode, no global lock — peek the topic and
    // move the frame into its shard's ring.  Engines exist for the whole
    // time is_primary_ is true (promote creates them before the flag
    // flips).
    route_to_shard(std::move(frame));
    return;
  }
  // Backup / not-yet-promoted: a redirected publisher raced ahead of the
  // detector.  Store straight into the Backup Buffer so the copy is part
  // of the recovery set.
  const auto msg = decode_message_frame(frame);
  if (!msg.has_value()) return;
  {
    std::lock_guard lock(mutex_);
    // promote() flips is_primary_ while holding mutex_, so this re-check
    // is race-free: either we are still Backup here, or the shard engines
    // are fully built and the fast path below is safe.
    if (!is_primary_.load(std::memory_order_acquire)) {
      if (backup_) backup_->on_replica(*msg, clock_.now());
      return;
    }
  }
  route_to_shard(std::move(frame));
}

void RuntimeBroker::route_to_shard(std::vector<std::uint8_t> frame) {
  const auto topic = peek_message_topic(frame);
  if (!topic.has_value()) return;
  Shard& shard = *shards_[shard_index(*topic)];
  // try_push moves the frame only on success, so a retry pushes it again.
  while (!shard.inbox.try_push(frame)) {
    // Bounded ring full: backpressure the producer rather than drop an
    // accepted publish.  Lanes drain continuously, so this resolves unless
    // the broker is crashing — in which case the frame is droppable
    // in-flight traffic anyway.
    if (crashed_.load(std::memory_order_acquire) ||
        stop_.load(std::memory_order_acquire)) {
      return;
    }
    inbox_backpressure_.fetch_add(1, std::memory_order_relaxed);
    obs::hooks::send_backpressure(options_.node);
    std::this_thread::yield();
  }
  // Wake an idle lane.  The fence pairs with the one in shard_loop: either
  // the lane sees our push when it re-checks the inbox, or we see its
  // idle_lanes increment and notify.  The empty lock_guard closes the gap
  // where the lane has re-checked but not yet entered wait.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.idle_lanes.load(std::memory_order_relaxed) > 0) {
    { std::lock_guard lock(shard.mutex); }
    shard.cv.notify_one();
  }
}

bool RuntimeBroker::mark_dispatched_locked(Shard& shard, TopicId topic,
                                           SeqNo seq) {
  auto& bits = shard.dispatched_bits[topic];
  const std::size_t word = static_cast<std::size_t>(seq / 64);
  const std::uint64_t mask = 1ull << (seq % 64);
  if (word >= bits.size()) bits.resize(word + 1, 0);
  if (bits[word] & mask) return false;
  bits[word] |= mask;
  return true;
}

bool RuntimeBroker::drain_inbox_locked(Shard& shard) {
  bool admitted = false;
  while (auto frame = shard.inbox.try_pop()) {
    admitted = true;
    const auto msg = decode_message_frame(*frame);
    if (!msg.has_value()) continue;
    if (!shard.engine) {
      // Demoted mid-flight (restart_as_backup drains inboxes, but a frame
      // can still slip in between drain and lane shutdown): in-flight
      // traffic at a role change is droppable, same as a crash.
      continue;
    }
    // Retention-replay dedup: a kResend (or a duplicated kPublish) for a
    // seq this broker already queued for dispatch must not double-deliver.
    if (!mark_dispatched_locked(shard, msg->topic, msg->seq)) {
      duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
      obs::hooks::broker_duplicate_suppressed(msg->topic, msg->seq);
      continue;
    }
    shard.engine->on_publish(*msg, clock_.now(),
                             has_peer_.load(std::memory_order_acquire));
  }
  // If admission created several jobs, one lane cannot drain them alone.
  if (admitted && shard.idle_lanes.load(std::memory_order_relaxed) > 0) {
    shard.cv.notify_one();
  }
  return admitted;
}

void RuntimeBroker::shard_loop(std::size_t shard_index) {
  obs::ThreadNodeScope node_scope(options_.node);
  // With one shard, record into the unsharded base series (pre-sharding
  // behaviour); with several, split per shard and fold at scrape time.
  obs::ShardScope shard_scope(shards_.size() > 1 ? shard_index
                                                 : obs::kNoShard);
  Shard& shard = *shards_[shard_index];
  std::unique_lock lock(shard.mutex);
  while (true) {
    if (stop_.load(std::memory_order_relaxed) ||
        crashed_.load(std::memory_order_relaxed)) {
      return;
    }
    // Admit pending frames first: admission is what creates jobs, and the
    // proxy timestamps (ΔPB) should reflect the hand-off wait.
    const bool admitted = drain_inbox_locked(shard);

    std::optional<Job> job;
    if (shard.engine) job = shard.engine->next_job();
    if (!job.has_value()) {
      if (admitted) continue;  // drained frames but no runnable job yet
      // Idle: publish intent, re-check the inbox (pairs with the producer
      // fence in route_to_shard), then wait with a timeout backstop.
      shard.idle_lanes.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (shard.inbox.empty()) {
        shard.cv.wait_for(lock, std::chrono::milliseconds(2));
      }
      shard.idle_lanes.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }

    // Per-stage attribution: queue delay is execute-start minus the job's
    // release (the same clock the enqueue hook stamped), service is the
    // rest of the delivery work.  Sharing t_exec with execute_* keeps
    // queue_delay + service identical to the stitched enqueue->done span.
    const TimePoint t_exec = clock_.now();
    const Duration queue_delay = t_exec - job->release;
    const NodeId peer = peer_.load(std::memory_order_acquire);

    if (job->kind == JobKind::kDispatch) {
      DispatchEffect effect = shard.engine->execute_dispatch(*job, t_exec);
      const bool prune = effect.prune_backup && peer != kInvalidNode &&
                         has_peer_.load(std::memory_order_acquire);
      lock.unlock();
      if (effect.executed) {
        Message msg = effect.msg;
        msg.dispatched_at = clock_.now();
        if (msg.trace_id != 0) ++msg.hop;  // crossing broker -> subscriber
        const auto frame = encode_message_frame(WireType::kDeliver, msg);
        // Consumer push (Fig. 5b): each subscriber gets the frame straight
        // over the bus; a full link is counted, not retried.
        for (const NodeId subscriber : effect.subscribers) {
          const Status sent = bus_.try_send(options_.node, subscriber, frame);
          if (sent.code() == StatusCode::kCapacity) {
            obs::hooks::send_backpressure(options_.node);
          }
        }
        if (prune) {
          bus_.send(options_.node, peer,
                    encode_prune_frame(PruneFrame{job->topic, job->seq}));
        }
        const TimePoint t_done = clock_.now();
        obs::hooks::dispatch_stage(job->topic, job->seq, t_done, queue_delay,
                                   t_done - t_exec, effect.msg.trace_id);
      }
      lock.lock();
    } else {
      ReplicateEffect effect = shard.engine->execute_replicate(*job, t_exec);
      lock.unlock();
      if (effect.executed && peer != kInvalidNode &&
          has_peer_.load(std::memory_order_acquire)) {
        Message copy = effect.msg;
        if (copy.trace_id != 0) ++copy.hop;  // crossing Primary -> Backup
        send_message(peer, WireType::kReplicate, copy);
        obs::hooks::replicate_stage(queue_delay, clock_.now() - t_exec);
      }
      lock.lock();
    }
  }
}

void RuntimeBroker::detector_loop() {
  obs::ThreadNodeScope node_scope(options_.node);
  PollingFailureDetector detector(options_.poll_period,
                                  options_.poll_miss_threshold);
  detector.start(clock_.now());
  while (!stop_.load(std::memory_order_acquire) &&
         !crashed_.load(std::memory_order_acquire)) {
    // A Hello can repoint the peer mid-run.
    const NodeId peer = peer_.load(std::memory_order_acquire);
    bus_.send(options_.node, peer, encode_control_frame(WireType::kPoll));
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(options_.poll_period));
    {
      std::lock_guard lock(mutex_);
      detector.on_reply(last_peer_reply_);
    }
    const bool suspected = detector.suspected(clock_.now());
    if (is_primary()) {
      // Primary side: a dead Backup means degraded mode — stop sending
      // replicas/prunes into the void; resume when a peer proves life
      // again (poll replies or a reintegration Hello).
      const bool live = has_peer_.load(std::memory_order_acquire);
      if (suspected && live) {
        has_peer_.store(false, std::memory_order_release);
        degraded_entries_.fetch_add(1, std::memory_order_relaxed);
        obs::hooks::backup_lost(peer, clock_.now());
        FRAME_LOG_INFO("broker %u: backup %u suspected dead, degraded mode",
                       options_.node, peer);
      } else if (!suspected && !live) {
        has_peer_.store(true, std::memory_order_release);
        obs::hooks::backup_joined(peer, clock_.now());
        FRAME_LOG_INFO("broker %u: backup %u is back, replication resumed",
                       options_.node, peer);
      }
    } else if (suspected) {
      obs::hooks::failover_detected(options_.node, clock_.now());
      promote();
      // Keep running: the promoted Primary now watches for a reintegrated
      // Backup (and for its death in turn).  promote() left has_peer_
      // false, so the next Hello or fresh reply flips us out of degraded.
      detector.start(clock_.now());
    }
  }
}

void RuntimeBroker::promote() {
  {
    std::lock_guard lock(mutex_);
    if (is_primary_.load(std::memory_order_acquire) || !backup_) return;
    FRAME_LOG_INFO("broker %u: promoting to Primary", options_.node);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      Shard& shard = *shards_[k];
      std::lock_guard shard_lock(shard.mutex);
      shard.engine = std::make_unique<PrimaryEngine>(options_.broker,
                                                     topics_, params_);
      for (const auto& [topic, subscriber] : subscriptions_) {
        if (shard_index(topic) == k) shard.engine->subscribe(topic, subscriber);
      }
    }
    // Recovery: dispatch the pruned Backup Buffer set first (Section IV-A).
    // Each copy routes through its owning shard's dedup bitmap so the
    // retention resends that follow promotion cannot re-admit a seq
    // recovered here.
    const TimePoint now = clock_.now();
    const std::vector<Message> recovery = backup_->promote();
    std::size_t recovered = 0;
    for (const auto& msg : recovery) {
      const std::size_t idx = shard_index(msg.topic);
      Shard& shard = *shards_[idx];
      std::lock_guard shard_lock(shard.mutex);
      obs::ShardScope shard_scope(shards_.size() > 1 ? idx : obs::kNoShard);
      if (!mark_dispatched_locked(shard, msg.topic, msg.seq)) {
        duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
        obs::hooks::broker_duplicate_suppressed(msg.topic, msg.seq);
        continue;
      }
      shard.engine->on_recovery_copy(msg, now);
      recovered += 1;
    }
    obs::hooks::promotion_complete(options_.node, clock_.now(), recovered);
    has_peer_.store(false, std::memory_order_release);
    is_primary_.store(true, std::memory_order_release);
  }
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->cv.notify_all();
  }
}

void RuntimeBroker::restart_as_backup(NodeId new_primary) {
  stop();  // join any threads from the previous life
  {
    std::lock_guard lock(mutex_);
    for (auto& shard : shards_) {
      std::lock_guard shard_lock(shard->mutex);
      shard->engine.reset();
      // A restarted process has no dispatch history; the subscriber-side
      // bitmap is the guard against cross-life duplicates.
      shard->dispatched_bits.clear();
      // Frames from the previous life are droppable in-flight traffic.
      while (shard->inbox.try_pop()) {
      }
    }
    backup_ = std::make_unique<BackupEngine>(options_.broker);
    backup_->configure(topics_.size());
    peer_.store(new_primary, std::memory_order_release);
    options_.start_as_primary = false;
  }
  is_primary_.store(false, std::memory_order_release);
  has_peer_.store(false, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  bus_.restore(options_.node);
  start();
  bus_.send(options_.node, new_primary,
            encode_hello_frame(HelloFrame{
                options_.node,
                static_cast<std::uint8_t>(NodeRole::kBackupBroker)}));
}

}  // namespace frame::runtime
