// End-to-end runtime behaviour with the Primary hot path partitioned into
// several shards: fault-free delivery and per-topic gap-freedom must be
// indistinguishable from the single-queue broker, and failover recovery
// must route through the per-shard dedup bitmaps without loss or
// double-delivery.  The broker's Fig. 5b seam (publish frames into the
// shard ring, kDeliver frames straight onto the bus) is checked under
// concurrent producers, live subscribes and peer Hellos, at 1 and 4
// shards; `FRAME_CHAOS=1 scripts/check.sh` also runs these under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "runtime/runtime_broker.hpp"
#include "runtime/system.hpp"

namespace frame::runtime {
namespace {

TimingParams sharded_timing() {
  TimingParams params;
  params.delta_pb = milliseconds(5);
  params.delta_bs_edge = milliseconds(1);
  params.delta_bs_cloud = milliseconds(20);
  params.delta_bb = milliseconds(1);
  params.failover_x = milliseconds(60);
  return params;
}

std::vector<ProxyGroup> sharded_deployment() {
  // Eight topics so a 4-shard broker exercises several shards at once
  // (splitmix64 spreads dense ids; see test_topic_sharding.cpp).
  std::vector<ProxyGroup> proxies;
  std::vector<TopicSpec> group_a, group_b;
  for (TopicId t = 0; t < 8; ++t) {
    TopicSpec spec{t, milliseconds(100), milliseconds(200), 0, 2,
                   Destination::kEdge};
    if (t % 2 == 0) {
      group_a.push_back(spec);  // zero-loss, replicated
    } else {
      spec.loss_tolerance = 3;
      spec.retention = 0;
      group_b.push_back(spec);  // loss-tolerant, no retention
    }
  }
  proxies.push_back(ProxyGroup{milliseconds(100), group_a});
  proxies.push_back(ProxyGroup{milliseconds(100), group_b});
  return proxies;
}

TEST(ShardedRuntime, BrokerHonoursConfiguredShardCount) {
  SystemOptions options;
  options.timing = sharded_timing();
  options.shards = 4;
  EdgeSystem system(options, sharded_deployment());
  EXPECT_EQ(system.primary().shard_count(), 4u);
  EXPECT_EQ(system.backup().shard_count(), 4u);
}

TEST(ShardedRuntime, ShardsClampedToSupportedRange) {
  SystemOptions options;
  options.timing = sharded_timing();
  options.shards = 10000;
  EdgeSystem system(options, sharded_deployment());
  EXPECT_EQ(system.primary().shard_count(), kMaxShards);
}

TEST(ShardedRuntime, FaultFreeDeliveryMatchesSingleQueueSemantics) {
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.timing = sharded_timing();
  options.shards = 4;
  EdgeSystem system(options, sharded_deployment());
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  system.stop();

  const auto created = system.messages_created();
  const auto delivered = system.messages_delivered();
  EXPECT_GT(created, 20u);
  // In-flight messages at shutdown may be unaccounted; allow a small gap.
  EXPECT_GE(delivered + 10, created);
  // No shard may double-deliver: unique deliveries never exceed creations.
  EXPECT_LE(delivered, created);

  // Per-topic gap-freedom for every zero-loss topic, whichever shard owns
  // it.
  for (TopicId topic = 0; topic < 8; topic += 2) {
    const SeqNo last = system.last_seq(topic);
    ASSERT_GT(last, 2u) << "topic " << topic;
    const auto& sub = system.subscriber(system.subscriber_index_of(topic));
    const auto loss = sub.loss_stats(topic, 1, last - 1);
    EXPECT_EQ(loss.total_losses, 0u)
        << "zero-loss topic " << topic << " lost messages";
  }
}

TEST(ShardedRuntime, FailoverRecoversAcrossShards) {
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.timing = sharded_timing();
  options.shards = 4;
  options.detector_poll = milliseconds(10);
  options.detector_misses = 3;
  EdgeSystem system(options, sharded_deployment());
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  system.crash_primary();
  ASSERT_TRUE(system.wait_for_failover(seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  system.stop();

  EXPECT_TRUE(system.backup().is_primary());

  // Every zero-loss topic survives the failover with no gap — the
  // promotion drained the Backup Buffer into per-shard queues and the
  // per-shard dedup bitmaps suppressed the retention replays.
  for (TopicId topic = 0; topic < 8; topic += 2) {
    const SeqNo last = system.last_seq(topic);
    ASSERT_GT(last, 5u) << "topic " << topic;
    const auto& sub = system.subscriber(system.subscriber_index_of(topic));
    const auto loss = sub.loss_stats(topic, 1, last - 1);
    EXPECT_EQ(loss.total_losses, 0u)
        << "zero-loss topic " << topic << " lost messages across failover";
  }
  // Loss-tolerant topics stay within their bound.
  for (TopicId topic = 1; topic < 8; topic += 2) {
    const SeqNo last = system.last_seq(topic);
    const auto& sub = system.subscriber(system.subscriber_index_of(topic));
    const auto loss = sub.loss_stats(topic, 1, last - 1);
    EXPECT_LE(loss.max_consecutive_losses, 3u) << "topic " << topic;
  }
}

TEST(ShardedRuntime, SingleShardReproducesLegacyBroker) {
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.timing = sharded_timing();
  options.shards = 1;
  EdgeSystem system(options, sharded_deployment());
  EXPECT_EQ(system.primary().shard_count(), 1u);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  system.stop();
  const auto created = system.messages_created();
  EXPECT_GT(created, 10u);
  EXPECT_GE(system.messages_delivered() + 10, created);
}

// ------------------------------------------------------- Fig. 5b seam

constexpr NodeId kSeamBroker = 1;
constexpr NodeId kSeamPeer = 2;
constexpr NodeId kSubscriberA = 10;
constexpr NodeId kSubscriberB = 11;
constexpr NodeId kLateSubscriber = 20;
constexpr NodeId kPublisher = 100;
/// Below the per-topic Message Buffer capacity, so no copy is ever
/// overwritten before its dispatch and every message must be delivered.
constexpr SeqNo kSeqsPerTopic = 48;

/// The only endpoint on this bus is the broker under test.  Producer
/// threads call its handler the way transport threads do, and every frame
/// the broker sends is recorded by destination and type; kDeliver frames
/// are decoded into per-(topic, seq) copy counts.
class RecordingBus final : public Bus {
 public:
  using Copies = std::map<std::pair<TopicId, SeqNo>, int>;

  void register_endpoint(NodeId, Handler handler) override {
    broker_ = std::move(handler);
  }
  void send(NodeId, NodeId to, std::vector<std::uint8_t> frame) override {
    const auto type = peek_type(frame);
    if (!type.has_value()) return;
    const auto msg = *type == WireType::kDeliver ? decode_message_frame(frame)
                                                 : std::nullopt;
    std::lock_guard lock(mutex_);
    ++frames_[{to, *type}];
    if (msg.has_value()) ++copies_[to][{msg->topic, msg->seq}];
  }
  void crash(NodeId) override {}
  void restore(NodeId) override {}
  bool crashed(NodeId) const override { return false; }
  void shutdown() override {}

  void push(NodeId from, std::vector<std::uint8_t> frame) const {
    broker_(from, std::move(frame));
  }
  void publish(NodeId from, TopicId topic, SeqNo seq,
               const MonotonicClock& clock) const {
    push(from, encode_message_frame(WireType::kPublish,
                                    make_test_message(topic, seq,
                                                      clock.now())));
  }

  Copies copies(NodeId node) const {
    std::lock_guard lock(mutex_);
    const auto it = copies_.find(node);
    return it == copies_.end() ? Copies{} : it->second;
  }
  std::size_t delivered(NodeId node) const {
    std::lock_guard lock(mutex_);
    const auto it = copies_.find(node);
    return it == copies_.end() ? 0 : it->second.size();
  }
  std::uint64_t frames(NodeId node, WireType type) const {
    std::lock_guard lock(mutex_);
    const auto it = frames_.find({node, type});
    return it == frames_.end() ? 0 : it->second;
  }
  std::set<NodeId> destinations() const {
    std::lock_guard lock(mutex_);
    std::set<NodeId> out;
    for (const auto& [key, count] : frames_) out.insert(key.first);
    return out;
  }

 private:
  Handler broker_;
  mutable std::mutex mutex_;
  std::map<std::pair<NodeId, WireType>, std::uint64_t> frames_;
  std::map<NodeId, Copies> copies_;
};

RuntimeBroker::Options seam_options(std::size_t shards, NodeId peer) {
  RuntimeBroker::Options options;
  options.node = kSeamBroker;
  options.peer = peer;
  options.start_as_primary = true;
  options.broker = broker_config(ConfigName::kFrame);
  options.shards = shards;
  return options;
}

/// `count` topics with the given loss tolerance and retention.
std::vector<TopicSpec> seam_topics(TopicId count, std::uint32_t loss,
                                   std::uint32_t retention) {
  std::vector<TopicSpec> topics;
  for (TopicId t = 0; t < count; ++t) {
    topics.push_back(TopicSpec{t, milliseconds(100), milliseconds(200), loss,
                               retention, Destination::kEdge});
  }
  return topics;
}

template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void expect_each_once(const RecordingBus::Copies& copies) {
  for (const auto& [key, count] : copies) {
    EXPECT_EQ(count, 1) << "topic " << key.first << " seq " << key.second;
  }
}

// Six producers call the broker's endpoint handler at once with distinct
// (topic, seq) publish frames.  Every frame is admitted, each subscriber of
// a topic gets exactly one kDeliver per message, and no frame goes to a
// node without a subscription.
TEST(ShardedRuntime, ConcurrentPublishersReachEachSubscriberOnce) {
  constexpr TopicId kProducers = 6;
  constexpr TopicId kTopics = 12;
  constexpr std::size_t kTotal = kTopics * kSeqsPerTopic;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    RecordingBus bus;
    const MonotonicClock clock;
    RuntimeBroker broker(bus, clock, seam_options(shards, kInvalidNode),
                         seam_topics(kTopics, 3, 0), sharded_timing());
    for (TopicId t = 0; t < kTopics; ++t) {
      broker.subscribe(t, kSubscriberA);
      if (t % 2 == 0) broker.subscribe(t, kSubscriberB);
    }
    broker.start();

    std::vector<std::thread> producers;
    for (TopicId p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        // Producer p owns topics p, p + kProducers, ...
        for (SeqNo seq = 1; seq <= kSeqsPerTopic; ++seq) {
          for (TopicId t = p; t < kTopics; t += kProducers) {
            bus.publish(kPublisher + p, t, seq, clock);
          }
        }
      });
    }
    for (auto& producer : producers) producer.join();
    EXPECT_TRUE(wait_until([&] {
      return bus.delivered(kSubscriberA) >= kTotal &&
             bus.delivered(kSubscriberB) >= kTotal / 2;
    }));
    broker.stop();

    EXPECT_EQ(broker.primary_stats().arrivals, kTotal);
    const auto a = bus.copies(kSubscriberA);
    EXPECT_EQ(a.size(), kTotal);
    expect_each_once(a);
    const auto b = bus.copies(kSubscriberB);
    EXPECT_EQ(b.size(), kTotal / 2);
    expect_each_once(b);
    for (const auto& [key, count] : b) {
      EXPECT_EQ(key.first % 2, 0u) << "B never subscribed to " << key.first;
    }
    EXPECT_EQ(bus.destinations(),
              (std::set<NodeId>{kSubscriberA, kSubscriberB}));
  }
}

// subscribe() while the topics' traffic flows: from the moment it returns,
// every newly admitted message reaches the new node, exactly once.
TEST(ShardedRuntime, SubscribeDuringTrafficReachesNewSubscriber) {
  constexpr TopicId kTopics = 2;
  constexpr SeqNo kSeqs = 400;
  constexpr std::uint64_t kTotal = kTopics * kSeqs;
  /// Closed loop: at most this many messages are undelivered, which keeps
  /// every topic below the Message Buffer capacity, so none is overwritten.
  constexpr std::uint64_t kWindow = 32;
  constexpr int kLate = 64;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    RecordingBus bus;
    const MonotonicClock clock;
    RuntimeBroker broker(bus, clock, seam_options(shards, kInvalidNode),
                         seam_topics(kTopics, 3, 0), sharded_timing());
    for (TopicId t = 0; t < kTopics; ++t) broker.subscribe(t, kSubscriberA);
    broker.start();

    // Round robin: push i (1-based) is topic (i - 1) % kTopics, seq
    // (i - 1) / kTopics + 1.
    std::atomic<std::uint64_t> pushed{0};
    std::thread producer([&] {
      std::uint64_t i = 0;
      for (SeqNo seq = 1; seq <= kSeqs; ++seq) {
        for (TopicId t = 0; t < kTopics; ++t) {
          while (i - bus.delivered(kSubscriberA) >= kWindow) {
            std::this_thread::yield();
          }
          bus.publish(kPublisher, t, seq, clock);
          pushed.store(++i, std::memory_order_release);
        }
      }
    });
    std::uint64_t pushed_at[kLate];
    for (int k = 0; k < kLate; ++k) {
      const std::uint64_t target = (k + 1) * kTotal / (kLate + 1);
      while (pushed.load(std::memory_order_acquire) < target) {
        std::this_thread::yield();
      }
      for (TopicId t = 0; t < kTopics; ++t) {
        broker.subscribe(t, kLateSubscriber + k);
      }
      pushed_at[k] = pushed.load(std::memory_order_acquire);
    }
    producer.join();
    EXPECT_TRUE(
        wait_until([&] { return bus.delivered(kSubscriberA) >= kTotal; }));
    broker.stop();

    const auto a = bus.copies(kSubscriberA);
    EXPECT_EQ(a.size(), kTotal);
    expect_each_once(a);
    for (int k = 0; k < kLate; ++k) {
      const auto got = bus.copies(kLateSubscriber + k);
      expect_each_once(got);
      // Push pushed_at + 1 may have been in flight when subscribe()
      // returned; every later one was pushed, so admitted, after it.
      for (std::uint64_t i = pushed_at[k] + 2; i <= kTotal; ++i) {
        const std::pair<TopicId, SeqNo> key{
            static_cast<TopicId>((i - 1) % kTopics), (i - 1) / kTopics + 1};
        EXPECT_EQ(got.count(key), 1u)
            << "late subscriber " << k << " missed topic " << key.first
            << " seq " << key.second;
      }
    }
  }
}

// A Backup's kHello repoints the Primary's live peer while its lanes
// replicate and prune to that peer.  Each lane job loads the peer once
// from an atomic, so the Hello races nothing, and every message is still
// delivered exactly once.
TEST(ShardedRuntime, HelloFromPeerWhileLanesReplicate) {
  constexpr TopicId kTopics = 8;
  constexpr std::size_t kTotal = kTopics * kSeqsPerTopic;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    RecordingBus bus;
    const MonotonicClock clock;
    // Zero-loss topics with retention 2: Proposition 1 replicates them.
    RuntimeBroker broker(bus, clock, seam_options(shards, kSeamPeer),
                         seam_topics(kTopics, 0, 2), sharded_timing());
    for (TopicId t = 0; t < kTopics; ++t) broker.subscribe(t, kSubscriberA);
    broker.start();

    std::atomic<bool> done{false};
    std::thread hellos([&] {
      const auto hello = encode_hello_frame(HelloFrame{
          kSeamPeer, static_cast<std::uint8_t>(NodeRole::kBackupBroker)});
      while (!done.load(std::memory_order_acquire)) {
        bus.push(kSeamPeer, hello);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    std::thread producer([&] {
      for (SeqNo seq = 1; seq <= kSeqsPerTopic; ++seq) {
        for (TopicId t = 0; t < kTopics; ++t) {
          bus.publish(kPublisher, t, seq, clock);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    producer.join();
    EXPECT_TRUE(
        wait_until([&] { return bus.delivered(kSubscriberA) >= kTotal; }));
    done.store(true, std::memory_order_release);
    hellos.join();
    broker.stop();

    EXPECT_EQ(broker.primary_stats().arrivals, kTotal);
    const auto a = bus.copies(kSubscriberA);
    EXPECT_EQ(a.size(), kTotal);
    expect_each_once(a);
    EXPECT_GT(bus.frames(kSeamPeer, WireType::kReplicate) +
                  bus.frames(kSeamPeer, WireType::kPrune),
              0u)
        << "the lanes never sent to the peer";
    EXPECT_TRUE(broker.has_live_peer());
  }
}

}  // namespace
}  // namespace frame::runtime
