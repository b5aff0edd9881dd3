// Chaos harness: the full runtime under scripted adversarial networks.
//
// Each scenario builds the Fig. 6 deployment over a FaultyBus, applies a
// seeded fault schedule (loss bursts on the publisher->Primary path ΔPB,
// delay spikes on the replication path ΔBB, broker crashes, partitions),
// and asserts FRAME's guarantees through the subscribers and the SLO
// monitor's per-topic account: consecutive losses stay within each topic's
// Li,
// failover completes within the detector's detection_bound() (plus
// scheduling margin), corrupted frames never reach an engine, and the
// retention replay after promotion double-delivers nothing.
//
// Every scenario is replayable: the fault plan derives from one seed,
// overridable with FRAME_CHAOS_SEED, printed on failure by ChaosTest.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "chaos_util.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "runtime/system.hpp"

namespace frame::runtime {
namespace {

using chaos::ChaosTest;

// Wall-clock slack added to detection_bound() when asserting failover
// latency: thread scheduling, sanitizer overhead and loaded CI machines
// all stretch the loop between "suspect" and "redirected".
constexpr Duration kSchedulingMargin = milliseconds(1500);

constexpr std::uint8_t kPublishTag =
    static_cast<std::uint8_t>(WireType::kPublish);
constexpr std::uint8_t kReplicateTag =
    static_cast<std::uint8_t>(WireType::kReplicate);

TimingParams chaos_timing() {
  TimingParams params;
  params.delta_pb = milliseconds(5);
  params.delta_bs_edge = milliseconds(1);
  params.delta_bs_cloud = milliseconds(20);
  params.delta_bb = milliseconds(1);
  params.failover_x = milliseconds(60);
  return params;
}

/// One proxy group per topic, so each topic has a dedicated publisher
/// node (100 + topic id) and faults can target one topic's ΔPB link.
///   topic 0: zero-loss, retained (Ni = 2)      publisher 100
///   topic 1: loss-tolerant Li = 3, no retention publisher 101
///   topic 2: zero-loss, replicated (Ni = 1)     publisher 102
std::vector<ProxyGroup> chaos_deployment() {
  return {
      ProxyGroup{milliseconds(100),
                 {TopicSpec{0, milliseconds(100), milliseconds(150), 0, 2,
                            Destination::kEdge}}},
      ProxyGroup{milliseconds(100),
                 {TopicSpec{1, milliseconds(100), milliseconds(150), 3, 0,
                            Destination::kEdge}}},
      ProxyGroup{milliseconds(100),
                 {TopicSpec{2, milliseconds(100), milliseconds(200), 0, 1,
                            Destination::kEdge}}},
  };
}

SystemOptions chaos_options(std::uint64_t seed, std::vector<FaultRule> rules,
                            Transport transport = Transport::kInproc) {
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.transport = transport;
  options.timing = chaos_timing();
  options.fault_plan = FaultPlan{seed, std::move(rules)};
  return options;
}

void expect_zero_loss(EdgeSystem& system, TopicId topic) {
  const SeqNo last = system.last_seq(topic);
  ASSERT_GT(last, 2u) << "topic " << topic << " barely published";
  const auto& sub = system.subscriber(system.subscriber_index_of(topic));
  const auto loss = sub.loss_stats(topic, 1, last - 1);
  EXPECT_EQ(loss.total_losses, 0u) << "zero-loss topic " << topic;
}

void expect_loss_within_li(EdgeSystem& system, TopicId topic,
                           std::uint64_t li) {
  const SeqNo last = system.last_seq(topic);
  ASSERT_GT(last, 2u) << "topic " << topic << " barely published";
  const auto& sub = system.subscriber(system.subscriber_index_of(topic));
  const auto loss = sub.loss_stats(topic, 1, last - 1);
  EXPECT_LE(loss.max_consecutive_losses, li) << "topic " << topic;
}

/// The SLO monitor's per-topic verdict on the Li budget.
void expect_account_within_budget(TopicId topic) {
  const auto snapshot = obs::slo().snapshot(topic, obs::slo().latest_now());
  EXPECT_FALSE(snapshot.loss_budget_exceeded)
      << "slo account: topic " << topic << " max streak "
      << snapshot.max_loss_streak << " > Li " << snapshot.loss_tolerance;
}

class ChaosScenario : public ChaosTest {
 protected:
  void arm_account(EdgeSystem& system) {
    obs::set_enabled(true);
    obs::reset_all();
    obs::slo().configure(system.topics());
  }

  void TearDown() override {
    obs::set_enabled(false);
    ChaosTest::TearDown();
  }
};

// Scenario 1 (ΔPB loss burst): drop exactly Li consecutive publishes of
// the loss-tolerant topic.  The streak must be visible but never exceed
// Li, and the zero-loss topics must not notice.
TEST_F(ChaosScenario, LossBurstOnPublisherLinkBoundedByLi) {
  FaultRule burst;
  burst.kind = FaultKind::kDrop;
  burst.from = 101;  // topic 1's publisher
  burst.to = 1;      // Primary
  burst.type_tag = kPublishTag;
  burst.max_count = 3;  // exactly Li
  burst.start = milliseconds(250);

  EdgeSystem system(chaos_options(use_seed(1001), {burst}),
                    chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  system.stop();

  EXPECT_EQ(system.faults()->injected(FaultKind::kDrop), 3u);
  expect_zero_loss(system, 0);
  expect_zero_loss(system, 2);
  {
    const SeqNo last = system.last_seq(1);
    ASSERT_GT(last, 5u);
    const auto& sub = system.subscriber(system.subscriber_index_of(1));
    const auto loss = sub.loss_stats(1, 1, last - 1);
    EXPECT_GE(loss.total_losses, 1u) << "the burst should be visible";
    EXPECT_LE(loss.max_consecutive_losses, 3u) << "Li exceeded";
  }
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

// Scenario 2 (ΔBB / ΔBS delay spikes): latency on everything the Primary
// sends — replicas, prunes, deliveries, poll replies.  Delay is not loss:
// nothing may be lost and nobody may fail over.
TEST_F(ChaosScenario, DelaySpikesCauseNoLossAndNoFailover) {
  FaultRule spikes;
  spikes.kind = FaultKind::kDelay;
  spikes.from = 1;  // Primary -> everyone
  spikes.probability = 0.5;
  spikes.delay = milliseconds(5);
  spikes.delay_jitter = milliseconds(10);

  // The spikes also delay poll replies.  This scenario asserts that delay
  // is absorbed, not that the detector tolerates it, so widen the bound
  // (15 ms worst-case spike + sanitizer/CI scheduling noise must never
  // reach it): 25 ms * (5+1) = 150 ms.
  SystemOptions options = chaos_options(use_seed(1002), {spikes});
  options.detector_poll = milliseconds(25);
  options.detector_misses = 5;
  EdgeSystem system(options, chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  system.stop();

  EXPECT_GT(system.faults()->injected(FaultKind::kDelay), 0u);
  EXPECT_FALSE(system.backup().is_primary()) << "delay caused a failover";
  for (std::size_t i = 0; i < system.publisher_count(); ++i) {
    EXPECT_EQ(system.publisher(i).failover_count(), 0u);
  }
  expect_zero_loss(system, 0);
  expect_zero_loss(system, 2);
  expect_loss_within_li(system, 1, 3);
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

// Scenario 3: Primary crashes in the middle of a loss burst on the
// retained topic's ΔPB link.  Failover must complete within the
// detector's bound (plus scheduling margin) and the retention replay
// must leave the zero-loss topics gapless.
TEST_F(ChaosScenario, PrimaryCrashMidBurstMeetsFailoverBound) {
  EdgeSystem system(chaos_options(use_seed(1003), {}), chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Open the burst, then kill the Primary while it is active.
  FaultRule burst;
  burst.kind = FaultKind::kDrop;
  burst.from = 100;  // topic 0's publisher
  burst.to = 1;
  burst.type_tag = kPublishTag;
  burst.max_count = 2;  // within topic 0's retention Ni = 2
  system.faults()->add_rule(burst);

  const MonotonicClock clock;
  const TimePoint crash_at = clock.now();
  system.crash_primary();
  ASSERT_TRUE(system.wait_for_failover(seconds(5)));
  const Duration failover_took = clock.now() - crash_at;
  EXPECT_LE(failover_took, system.detection_bound() + kSchedulingMargin)
      << "failover took " << to_millis(failover_took) << " ms against a "
      << to_millis(system.detection_bound()) << " ms detection bound";

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  system.stop();

  EXPECT_TRUE(system.backup().is_primary());
  expect_zero_loss(system, 0);
  expect_zero_loss(system, 2);
  expect_loss_within_li(system, 1, 3);
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

// Scenario 4: the Backup crashes.  The Primary must detect it within the
// bound, keep serving without replication (degraded mode), reintegrate
// the restarted Backup, and then survive its own crash.
TEST_F(ChaosScenario, BackupCrashDegradesThenReintegrates) {
  EdgeSystem system(chaos_options(use_seed(1004), {}), chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  system.crash_backup();
  ASSERT_TRUE(
      system.wait_for_degraded(system.detection_bound() + kSchedulingMargin))
      << "Primary never noticed its Backup died";
  EXPECT_GE(system.primary().degraded_entries(), 1u);

  // Degraded operation: dispatches continue while replication is off.
  const std::uint64_t delivered_before = system.messages_delivered();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(system.messages_delivered(), delivered_before)
      << "degraded Primary stopped delivering";

  // Reintegration: the restarted Backup announces itself and replication
  // resumes (sync set + fresh replicas).
  system.rejoin_crashed_backup();
  ASSERT_TRUE(system.wait_for_replication_restored(seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(system.backup().backup_stats().replicas_received, 0u);

  // The reintegrated Backup is a real backup: crash the Primary into it.
  system.crash_primary();
  ASSERT_TRUE(system.wait_for_failover(seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  system.stop();

  EXPECT_TRUE(system.backup().is_primary());
  expect_zero_loss(system, 0);
  expect_zero_loss(system, 2);
  expect_loss_within_li(system, 1, 3);
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

// Scenario 5: full partition of the Primary (both directions, all peers),
// then heal.  The partition looks exactly like a crash from outside:
// failover must complete; after healing, delivery continues through the
// promoted broker and the loss budgets still hold.
TEST_F(ChaosScenario, PartitionedPrimaryFailsOverThenHeals) {
  EdgeSystem system(chaos_options(use_seed(1005), {}), chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  FaultRule partition;
  partition.kind = FaultKind::kPartition;
  partition.from = kAnyNode;
  partition.to = 1;  // isolate the Primary from every peer
  const std::size_t rule_id = system.faults()->add_rule(partition);

  ASSERT_TRUE(system.wait_for_failover(seconds(5)))
      << "partitioned Primary did not trigger failover";
  EXPECT_GT(system.faults()->injected(FaultKind::kPartition), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  system.faults()->retire_rule(rule_id);  // heal
  const std::uint64_t delivered_at_heal = system.messages_delivered();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  system.stop();

  EXPECT_TRUE(system.backup().is_primary());
  EXPECT_GT(system.messages_delivered(), delivered_at_heal)
      << "no progress after the partition healed";
  expect_zero_loss(system, 0);
  expect_loss_within_li(system, 1, 3);
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

// Scenario 6: corruption and truncation on the wire.  Every mangled frame
// must be stopped by the CRC32C gate (counted, never decoded), and the
// loss budgets absorb the corrupted publishes.
TEST_F(ChaosScenario, CorruptAndTruncatedFramesNeverReachEngines) {
  FaultRule corrupt;
  corrupt.kind = FaultKind::kCorrupt;
  corrupt.from = 101;  // topic 1's publisher
  corrupt.to = 1;
  corrupt.type_tag = kPublishTag;
  corrupt.max_count = 3;  // exactly Li consecutive corrupted publishes
  corrupt.start = milliseconds(250);

  FaultRule truncate;
  truncate.kind = FaultKind::kTruncate;
  truncate.from = 1;  // Primary -> Backup replicas
  truncate.to = 2;
  truncate.type_tag = kReplicateTag;
  truncate.max_count = 3;

  EdgeSystem system(chaos_options(use_seed(1006), {corrupt, truncate}),
                    chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  system.stop();

  // Every injected fault was caught at the CRC gate of the receiving
  // endpoint: nothing corrupted was ever decoded.
  EXPECT_EQ(system.faults()->injected(FaultKind::kCorrupt), 3u);
  EXPECT_EQ(system.faults()->injected(FaultKind::kTruncate), 3u);
  EXPECT_EQ(system.primary().corrupt_frames(), 3u);
  EXPECT_EQ(system.backup().corrupt_frames(), 3u);

  // A corrupted publish is a lost publish — within Li — and the truncated
  // replicas cost nothing while the Primary is alive.
  expect_zero_loss(system, 0);
  expect_zero_loss(system, 2);
  expect_loss_within_li(system, 1, 3);
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

// Scenario 7: the fault layer and CRC gate work over real TCP sockets
// exactly as over the in-process bus: a bounded loss burst plus corrupted
// publishes on one ΔPB link, absorbed within Li.
TEST_F(ChaosScenario, LossBurstAndCorruptionOverTcp) {
  FaultRule burst;
  burst.kind = FaultKind::kDrop;
  burst.from = 101;
  burst.to = 1;
  burst.type_tag = kPublishTag;
  burst.max_count = 3;
  burst.start = milliseconds(300);

  FaultRule corrupt;
  corrupt.kind = FaultKind::kCorrupt;
  corrupt.from = 101;
  corrupt.to = 1;
  corrupt.type_tag = kPublishTag;
  corrupt.max_count = 2;
  corrupt.start = milliseconds(900);  // a separate, later burst

  EdgeSystem system(
      chaos_options(use_seed(1007), {burst, corrupt}, Transport::kTcp),
      chaos_deployment());
  arm_account(system);
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1600));
  system.stop();

  EXPECT_EQ(system.faults()->injected(FaultKind::kDrop), 3u);
  EXPECT_EQ(system.faults()->injected(FaultKind::kCorrupt), 2u);
  EXPECT_EQ(system.primary().corrupt_frames(), 2u);
  expect_zero_loss(system, 0);
  expect_zero_loss(system, 2);
  expect_loss_within_li(system, 1, 3);
  for (const TopicId topic : {0u, 1u, 2u}) {
    expect_account_within_budget(topic);
  }
}

}  // namespace
}  // namespace frame::runtime
