// Per-shard instrument splitting and scrape-time aggregation: shard lanes
// record into "<base>_shard<k>" series (so N shards never clobber one
// global gauge), and collect_snapshot folds them back into the base name —
// counters sum, gauges sum, "*_peak" gauges max, latencies merge moments
// and histograms — so every pre-sharding consumer keeps reading the old
// names and sees the whole-broker aggregate.
#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace frame::obs {
namespace {

class ShardMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_all();
  }
  void TearDown() override {
    set_thread_shard(kNoShard);
    set_enabled(false);
  }

  static const std::uint64_t* counter(const ObsSnapshot& snap,
                                      std::string_view name) {
    for (const auto& [n, v] : snap.metrics.counters) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  static const std::int64_t* gauge(const ObsSnapshot& snap,
                                   std::string_view name) {
    for (const auto& [n, v] : snap.metrics.gauges) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  static const LatencyRecorder::Snapshot* latency(const ObsSnapshot& snap,
                                                  std::string_view name) {
    for (const auto& [n, v] : snap.metrics.latencies) {
      if (n == name) return &v;
    }
    return nullptr;
  }
};

TEST_F(ShardMetricsTest, ShardScopeSetsAndRestoresThreadShard) {
  EXPECT_EQ(thread_shard(), kNoShard);
  {
    ShardScope outer(3);
    EXPECT_EQ(thread_shard(), 3u);
    {
      ShardScope inner(5);
      EXPECT_EQ(thread_shard(), 5u);
    }
    EXPECT_EQ(thread_shard(), 3u);
  }
  EXPECT_EQ(thread_shard(), kNoShard);
}

TEST_F(ShardMetricsTest, DepthGaugesSplitPerShardAndFoldAsSumAndPeakMax) {
  if (!kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  // Two shards publish different depths: without the split, the second
  // write would clobber the first and the aggregate would read 2, not 9.
  {
    ShardScope shard(0);
    hooks::job_queue_depth(7);
  }
  {
    ShardScope shard(1);
    hooks::job_queue_depth(2);
  }

  const auto snap = collect_snapshot(0);
  const auto* s0 = gauge(snap, "frame_job_queue_depth_shard0");
  const auto* s1 = gauge(snap, "frame_job_queue_depth_shard1");
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(*s0, 7);
  EXPECT_EQ(*s1, 2);

  const auto* total = gauge(snap, "frame_job_queue_depth");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(*total, 9);  // depths sum across shards

  const auto* peak = gauge(snap, "frame_job_queue_depth_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(*peak, 7);  // peaks take the max, not the sum
}

TEST_F(ShardMetricsTest, CountersFoldAcrossShardsAndUnshardedBase) {
  if (!kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  // A thread without a ShardScope (engine unit test, simulator) records
  // into the base series; the fold must include it in the total.
  hooks::dispatch_executed(0, 1, 0, kDurationInfinite);
  {
    ShardScope shard(0);
    hooks::dispatch_executed(0, 2, 0, kDurationInfinite);
    hooks::dispatch_executed(0, 3, 0, kDurationInfinite);
  }
  {
    ShardScope shard(2);
    hooks::dispatch_executed(0, 4, 0, kDurationInfinite);
  }

  const auto snap = collect_snapshot(0);
  const auto* total = counter(snap, "frame_dispatches_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(*total, 4u);
  const auto* s0 = counter(snap, "frame_dispatches_total_shard0");
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(*s0, 2u);
}

TEST_F(ShardMetricsTest, StageLatenciesMergeMomentsAndHistograms) {
  if (!kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  {
    ShardScope shard(0);
    hooks::dispatch_stage(0, 1, 1000, /*queue_delay=*/1000,
                          /*service=*/500);
    hooks::dispatch_stage(0, 2, 2000, /*queue_delay=*/3000,
                          /*service=*/500);
  }
  {
    ShardScope shard(1);
    hooks::dispatch_stage(1, 1, 3000, /*queue_delay=*/2000,
                          /*service=*/500);
  }

  const auto snap = collect_snapshot(0);
  const auto* merged = latency(snap, "frame_dispatch_queue_delay_ns");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 3u);
  EXPECT_DOUBLE_EQ(merged->mean(), 2000.0);
  EXPECT_DOUBLE_EQ(merged->min(), 1000.0);
  EXPECT_DOUBLE_EQ(merged->max(), 3000.0);
  EXPECT_EQ(merged->hist.total(), 3u);  // histograms merged bin-by-bin

  const auto* s1 = latency(snap, "frame_dispatch_queue_delay_ns_shard1");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->count(), 1u);
}

TEST_F(ShardMetricsTest, FoldedAggregateVisibleThroughExporters) {
  if (!kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  {
    ShardScope shard(1);
    hooks::dispatch_stage(0, 1, 1000, 700, 300);
  }
  const auto snap = collect_snapshot(0);

  // The base name exists in /metrics and /snapshot.json even though every
  // sample was recorded under a shard scope.
  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE frame_dispatch_queue_delay_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("frame_dispatch_queue_delay_ns_count 1"),
            std::string::npos);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"frame_dispatch_queue_delay_ns\""),
            std::string::npos);
}

TEST_F(ShardMetricsTest, NonShardNamesAreLeftAlone) {
  // Names that merely contain "_shard" without trailing digits must not be
  // folded (split would mangle unrelated instruments).
  registry().counter("frame_sharding_total").add(5);
  registry().counter("frame_thing_shardx_total").add(2);
  const auto snap = collect_snapshot(0);
  const auto* a = counter(snap, "frame_sharding_total");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 5u);
  EXPECT_EQ(counter(snap, "frame_sharding"), nullptr);
  EXPECT_EQ(counter(snap, "frame_thing"), nullptr);
}

}  // namespace
}  // namespace frame::obs
