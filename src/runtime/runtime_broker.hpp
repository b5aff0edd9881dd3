// Real-thread broker hosts over the in-process bus.
//
// This is the deployment-shaped counterpart of the simulator: the same
// PrimaryEngine / BackupEngine state machines, driven by actual threads and
// the monotonic clock.  The broker owns the paper's Fig. 5b seam itself:
// on_publish_frame is the supplier-push hook that feeds FRAME's Message
// Proxy, and a delivery lane's bus_.try_send of each kDeliver frame is
// the consumer push of FRAME's Message Delivery.
//
// Threading (DESIGN.md §12): the Primary hot path is partitioned into
// `shards` independent lanes.  Topics map to shards by consistent hash
// (core/topic_sharding.hpp), so one topic's admissions, EDF queue and
// dispatch/replicate jobs all live in a single shard — per-topic deadline
// order (the property Lemmas 1/2 need) is preserved while unrelated topics
// proceed in parallel.  Producers (bus endpoint handlers, publishers racing
// a promotion) hand raw frames to a shard through a bounded MPSC ring; the
// shard's lane threads drain the ring, admit under the shard mutex, then
// pop one EDF job and perform network sends outside any lock.  Everything
// that is not per-topic hot path (Backup engine, failure detector state,
// subscriptions) stays behind the global mutex; the live peer identity is
// an atomic that each lane job loads once.  Lock order is strictly
// global -> shard; no path takes them in the other direction.  With
// shards == 1 this degenerates to the original single-queue broker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broker/backup_engine.hpp"
#include "broker/config.hpp"
#include "broker/primary_engine.hpp"
#include "common/mpsc_ring.hpp"
#include "core/topic_sharding.hpp"
#include "net/bus.hpp"
#include "net/wire.hpp"

namespace frame::runtime {

enum class NodeRole : std::uint8_t {
  kPublisher = 0,
  kPrimaryBroker = 1,
  kBackupBroker = 2,
  kSubscriber = 3,
};

/// A broker host.  Starts as Primary or Backup; a Backup promotes itself
/// when its failure detector suspects the Primary.
class RuntimeBroker {
 public:
  struct Options {
    NodeId node = kInvalidNode;
    NodeId peer = kInvalidNode;           ///< the other broker
    bool start_as_primary = false;
    BrokerConfig broker;
    std::size_t delivery_threads = 3;     ///< paper: 3x cores; scaled down
    /// Primary hot-path shards (clamped to [1, kMaxShards]).  The
    /// delivery threads are spread across shards, at least one lane each.
    std::size_t shards = 1;
    /// Capacity of each shard's frame hand-off ring (rounded to 2^k).
    std::size_t shard_inbox_capacity = 1024;
    Duration poll_period = milliseconds(10);
    int poll_miss_threshold = 3;
  };

  RuntimeBroker(Bus& bus, const MonotonicClock& clock, Options options,
                std::vector<TopicSpec> topics, TimingParams params);
  ~RuntimeBroker();

  RuntimeBroker(const RuntimeBroker&) = delete;
  RuntimeBroker& operator=(const RuntimeBroker&) = delete;

  /// Registers a subscriber for a topic (applies now and after promotion).
  void subscribe(TopicId topic, NodeId subscriber);

  void start();
  void stop();

  /// Fail-stop crash: stops serving immediately (also crash the node on the
  /// bus so in-flight traffic is dropped).
  void crash();

  /// Backup reintegration: restarts this (crashed) broker as the new Backup
  /// of `new_primary`.  It announces itself with a Hello; the serving
  /// Primary replies with a state sync of its undispatched replicating
  /// copies and resumes replication.  Tolerates a subsequent crash of the
  /// new Primary.
  void restart_as_backup(NodeId new_primary);

  bool is_primary() const { return is_primary_.load(std::memory_order_acquire); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// False while the peer is suspected dead (degraded mode as Primary: no
  /// replication or prunes are sent until the Backup reintegrates).
  bool has_live_peer() const {
    return has_peer_.load(std::memory_order_acquire);
  }

  /// Inbound frames rejected by the CRC32C gate before any decode.
  std::uint64_t corrupt_frames() const {
    return corrupt_frames_.load(std::memory_order_relaxed);
  }

  /// Admissions suppressed because this broker had already dispatched (or
  /// queued for dispatch) that (topic, seq) — retention-replay dedup.
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }

  /// Times this broker, while Primary, declared its Backup dead.
  std::uint64_t degraded_entries() const {
    return degraded_entries_.load(std::memory_order_relaxed);
  }

  /// Pushes that found a shard inbox full and had to spin (backpressure).
  std::uint64_t inbox_backpressure() const {
    return inbox_backpressure_.load(std::memory_order_relaxed);
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// Aggregate across all shard engines (empty when not Primary).
  PrimaryEngine::Stats primary_stats() const;
  BackupEngine::Stats backup_stats() const;

 private:
  /// One partition of the Primary hot path.  `engine`, `dispatched_bits`
  /// and everything reached through them are guarded by `mutex`; the inbox
  /// is lock-free on the producer side and drained under `mutex` so lanes
  /// of the same shard admit in ring order.
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::atomic<int> idle_lanes{0};
    std::unique_ptr<PrimaryEngine> engine;
    /// Per-topic bitmap of seqs this broker admitted for dispatch.
    std::unordered_map<TopicId, std::vector<std::uint64_t>> dispatched_bits;
    MpscRing<std::vector<std::uint8_t>> inbox;
    explicit Shard(std::size_t inbox_capacity) : inbox(inbox_capacity) {}
  };

  std::size_t shard_index(TopicId topic) const {
    return shard_of_topic(topic, shards_.size());
  }

  void on_frame(NodeId from, std::vector<std::uint8_t> frame);
  /// Supplier-push hook (Fig. 5b): moves a publish/resend frame into its
  /// shard's ring, or stores it in the Backup Buffer under the global
  /// mutex while this broker is a Backup that is not yet promoted.
  void on_publish_frame(std::vector<std::uint8_t> frame);
  void route_to_shard(std::vector<std::uint8_t> frame);
  void shard_loop(std::size_t shard_index);
  /// Admits every frame currently in the shard's inbox.  Returns true if
  /// anything was consumed.  Caller holds the shard mutex.
  bool drain_inbox_locked(Shard& shard);
  void detector_loop();
  void promote();
  void send_message(NodeId to, WireType type, const Message& msg);

  /// Records (topic, seq) as dispatched-or-queued at THIS broker; returns
  /// false if it already was (the admission must be suppressed).  Only
  /// tracks this broker's own dispatch decisions — never peer prunes: a
  /// prune proves the PEER dispatched, and trusting it here would turn the
  /// prune-applied/deliver-lost crash race into a permanent gap.  Caller
  /// holds the shard's mutex.
  static bool mark_dispatched_locked(Shard& shard, TopicId topic, SeqNo seq);

  Bus& bus_;
  const MonotonicClock& clock_;
  Options options_;
  std::vector<TopicSpec> topics_;
  TimingParams params_;

  /// Global state: Backup engine, subscriptions, detector bookkeeping.
  /// Lock order: mutex_ before any Shard::mutex.
  mutable std::mutex mutex_;
  std::unique_ptr<BackupEngine> backup_;
  std::vector<std::pair<TopicId, NodeId>> subscriptions_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> is_primary_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> stop_{false};
  /// The other broker.  Starts as Options::peer; a Hello or a restart
  /// repoints it while lanes run, so readers load it, never options_.peer.
  std::atomic<NodeId> peer_{kInvalidNode};
  /// True while a live Backup peer exists (replication + prunes flow).
  std::atomic<bool> has_peer_{false};
  std::atomic<std::uint64_t> corrupt_frames_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> degraded_entries_{0};
  std::atomic<std::uint64_t> inbox_backpressure_{0};
  TimePoint last_peer_reply_ = 0;

  std::vector<std::thread> delivery_pool_;
  std::thread detector_;
};

}  // namespace frame::runtime
