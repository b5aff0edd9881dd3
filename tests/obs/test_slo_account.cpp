// The SLO monitor's all-time per-topic account vs the paper's Lemma 1 /
// Lemma 2 and the loss tolerance Li, with deadlines hand-computed from the
// timing model (core/timing.hpp) exactly as the Job Generator stamps them.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/timing.hpp"
#include "core/topic.hpp"
#include "obs/slo.hpp"

namespace frame::obs {
namespace {

constexpr TimePoint kNow = seconds(1);

TimingParams test_params() {
  TimingParams params;
  params.delta_pb = milliseconds(5);
  params.delta_bs_edge = milliseconds(1);
  params.delta_bs_cloud = milliseconds(20);
  params.delta_bb = milliseconds(1);
  params.failover_x = milliseconds(60);
  return params;
}

// Ti=100ms, Di=150ms, Li=0, Ni=2, edge.
TopicSpec test_spec(TopicId id = 0) {
  return TopicSpec{id, milliseconds(100), milliseconds(150), 0, 2,
                   Destination::kEdge};
}

SloMonitor& configured_monitor() {
  SloMonitor& monitor = slo();
  monitor.configure({test_spec(0), test_spec(1)});
  monitor.reset();
  return monitor;
}

TEST(SloAccount, DispatchSlackAgainstLemma2) {
  SloMonitor& monitor = configured_monitor();
  const TopicSpec spec = test_spec();
  const TimingParams params = test_params();

  // Lemma 2: Dd = Di - dPB - dBS = 150 - 5 - 1 = 144 ms.
  const Duration dd = dispatch_deadline(spec, params);
  ASSERT_EQ(dd, milliseconds(144));

  // A message admitted at tp has absolute deadline tp + Dd.  Executing
  // before it leaves positive slack; after it, negative.
  const TimePoint tp = milliseconds(1000);
  const TimePoint deadline = tp + dd;
  monitor.on_dispatch_executed(0, deadline - (tp + milliseconds(10)), kNow);
  monitor.on_dispatch_executed(0, deadline - (tp + milliseconds(144)), kNow);
  monitor.on_dispatch_executed(0, deadline - (tp + milliseconds(200)), kNow);

  const TopicSloSnapshot snap = monitor.snapshot(0, kNow);
  EXPECT_EQ(snap.dispatches, 3u);
  EXPECT_EQ(snap.dispatch_misses, 1u);  // only the 200 ms execution missed
}

TEST(SloAccount, ReplicationSlackAgainstLemma1) {
  SloMonitor& monitor = configured_monitor();
  const TopicSpec spec = test_spec();
  const TimingParams params = test_params();

  // Lemma 1: Dr = (Ni+Li)*Ti - dPB - dBB - x = 200 - 5 - 1 - 60 = 134 ms.
  const Duration dr = replication_deadline(spec, params);
  ASSERT_EQ(dr, milliseconds(134));

  const TimePoint tp = milliseconds(2000);
  const TimePoint deadline = tp + dr;
  monitor.on_replication_executed(0, deadline - (tp + milliseconds(100)),
                                  kNow);
  monitor.on_replication_executed(0, deadline - (tp + milliseconds(135)),
                                  kNow);

  const TopicSloSnapshot snap = monitor.snapshot(0, kNow);
  EXPECT_EQ(snap.replications, 2u);
  EXPECT_EQ(snap.replication_misses, 1u);
}

TEST(SloAccount, PerMessageDeltaPbShiftsTheDeadline) {
  SloMonitor& monitor = configured_monitor();
  const TopicSpec spec = test_spec();
  const TimingParams params = test_params();

  // The Job Generator uses the pseudo deadline minus the *observed* dPB:
  // Dd' = Di - dBS = 149 ms; with observed dPB = 8 ms the per-message
  // deadline tightens to 141 ms, so an execution 142 ms after tp misses
  // even though it would meet the configured-bound Dd of 144 ms.
  const Duration dd_pseudo = dispatch_pseudo_deadline(spec, params);
  ASSERT_EQ(dd_pseudo, milliseconds(149));
  const Duration dd =
      apply_observed_delta_pb(dd_pseudo, milliseconds(8));
  ASSERT_EQ(dd, milliseconds(141));

  const TimePoint tp = milliseconds(3000);
  monitor.on_dispatch_executed(0, (tp + dd) - (tp + milliseconds(142)), kNow);
  EXPECT_EQ(monitor.snapshot(0, kNow).dispatch_misses, 1u);
}

TEST(SloAccount, E2eMissesCountAgainstDi) {
  SloMonitor& monitor = configured_monitor();
  monitor.on_delivery(0, 1, milliseconds(100), kNow);  // within Di = 150 ms
  monitor.on_delivery(0, 2, milliseconds(151), kNow);  // late
  const TopicSloSnapshot snap = monitor.snapshot(0, kNow);
  EXPECT_EQ(snap.deliveries, 2u);
  EXPECT_EQ(snap.e2e_misses, 1u);
  EXPECT_EQ(snap.e2e_latency.count(), 2u);
}

TEST(SloAccount, LossStreaksComparedToLi) {
  SloMonitor& monitor = slo();
  // Topic 1: Li = 2.
  TopicSpec tolerant = test_spec(1);
  tolerant.loss_tolerance = 2;
  monitor.configure({test_spec(0), tolerant});
  monitor.reset();

  // Sequence 1,2 delivered, 3-4 lost, 5 delivered: streak 2 == Li, ok.
  EXPECT_FALSE(monitor.on_delivery(1, 1, milliseconds(1), kNow));
  EXPECT_FALSE(monitor.on_delivery(1, 2, milliseconds(1), kNow));
  EXPECT_FALSE(monitor.on_delivery(1, 5, milliseconds(1), kNow));
  TopicSloSnapshot snap = monitor.snapshot(1, kNow);
  EXPECT_EQ(snap.losses_total, 2u);
  EXPECT_EQ(snap.max_loss_streak, 2u);
  EXPECT_FALSE(snap.loss_budget_exceeded);

  // 6-8 lost, 9 delivered: streak 3 > Li = 2 -> budget exceeded, and this
  // delivery is the one that reports the breach.
  EXPECT_TRUE(monitor.on_delivery(1, 9, milliseconds(1), kNow));
  snap = monitor.snapshot(1, kNow);
  EXPECT_EQ(snap.losses_total, 5u);
  EXPECT_EQ(snap.max_loss_streak, 3u);
  EXPECT_TRUE(snap.loss_budget_exceeded);
  // A later breach is not the first one.
  EXPECT_FALSE(monitor.on_delivery(1, 13, milliseconds(1), kNow));

  // Fill-in: 1, 3, 2.  The gap behind the highest seq counts as a loss when
  // 3 arrives, and the late 2 does not subtract it back.
  monitor.reset();
  monitor.on_delivery(1, 1, milliseconds(1), kNow);
  monitor.on_delivery(1, 3, milliseconds(1), kNow);
  monitor.on_delivery(1, 2, milliseconds(1), kNow);
  snap = monitor.snapshot(1, kNow);
  EXPECT_EQ(snap.losses_total, 1u);
  EXPECT_EQ(snap.max_loss_streak, 1u);
  // The highest seq stays 3: seq 4 exposes no gap.
  monitor.on_delivery(1, 4, milliseconds(1), kNow);
  EXPECT_EQ(monitor.snapshot(1, kNow).losses_total, 1u);
}

TEST(SloAccount, BestEffortTopicNeverExceedsBudget) {
  SloMonitor& monitor = slo();
  TopicSpec best_effort = test_spec(0);
  best_effort.loss_tolerance = kLossInfinite;
  monitor.configure({best_effort});
  monitor.reset();
  monitor.on_delivery(0, 1, milliseconds(1), kNow);
  EXPECT_FALSE(monitor.on_delivery(0, 100, milliseconds(1), kNow));
  const TopicSloSnapshot snap = monitor.snapshot(0, kNow);
  EXPECT_EQ(snap.max_loss_streak, 98u);
  EXPECT_FALSE(snap.loss_budget_exceeded);
}

TEST(SloAccount, UnknownTopicIsIgnored) {
  SloMonitor& monitor = configured_monitor();
  monitor.on_dispatch_executed(99, milliseconds(-1), kNow);
  monitor.on_delivery(99, 1, milliseconds(1), kNow);
  EXPECT_EQ(monitor.snapshot(99, kNow).topic, kInvalidTopic);
}

// Four threads feed one topic at once.  Every count is exact; how many
// deliveries land behind the highest seq seen depends on the interleaving,
// but the highest seq itself must come out exact.  FRAME_SANITIZE=thread
// certifies the slot lock on this test.
TEST(SloAccount, ConcurrentFeedsKeepExactTotals) {
  SloMonitor& monitor = configured_monitor();
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;

  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&monitor, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const bool odd = (i % 2) != 0;
        const TimePoint now = kNow + microseconds(static_cast<std::int64_t>(i));
        // Alternating slack sign: every second execution misses.
        const Duration slack = odd ? -milliseconds(1) : milliseconds(1);
        monitor.on_dispatch_executed(0, slack, now);
        monitor.on_replication_executed(0, slack, now);
        // Disjoint seqs: thread t delivers t+1, t+1+kThreads, ...; every
        // second one later than Di = 150 ms.
        const SeqNo seq = i * kThreads + t + 1;
        monitor.on_delivery(0, seq, odd ? milliseconds(151) : milliseconds(100),
                            now);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const TopicSloSnapshot snap = monitor.snapshot(0, kNow);
  EXPECT_EQ(snap.dispatches, kTotal);
  EXPECT_EQ(snap.dispatch_misses, kTotal / 2);
  EXPECT_EQ(snap.replications, kTotal);
  EXPECT_EQ(snap.replication_misses, kTotal / 2);
  EXPECT_EQ(snap.deliveries, kTotal);
  EXPECT_EQ(snap.e2e_misses, kTotal / 2);
  EXPECT_EQ(snap.e2e_latency.count(), kTotal);
  // Every feed landed inside one short window.
  EXPECT_EQ(snap.dispatches_short, kTotal);
  EXPECT_EQ(snap.dispatch_misses_short, kTotal / 2);
  EXPECT_EQ(snap.deliveries_short, kTotal);
  EXPECT_EQ(snap.e2e_misses_short, kTotal / 2);
  // Seqs 1..kTotal were all delivered, so at most kTotal - 1 of them can
  // have been behind the highest seq when they arrived.
  EXPECT_LT(snap.losses_total, kTotal);
  EXPECT_LE(snap.max_loss_streak, snap.losses_total);
  EXPECT_EQ(snap.loss_budget_exceeded, snap.max_loss_streak > 0);  // Li = 0

  // The highest seq seen is kTotal: kTotal + 2 exposes exactly one loss.
  monitor.on_delivery(0, kTotal + 2, milliseconds(1), kNow);
  EXPECT_EQ(monitor.snapshot(0, kNow).losses_total, snap.losses_total + 1);
}

}  // namespace
}  // namespace frame::obs
