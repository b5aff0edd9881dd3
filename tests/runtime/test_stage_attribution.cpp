// Per-stage dispatch attribution: the runtime's queue-delay and
// service-time histograms must agree with the stitched
// job-enqueue -> dispatch-done span (queue_delay + service == span per
// message by construction — both sides read the same clock values), and
// the new series must be visible through every exporter surface.
#include <gtest/gtest.h>

#include <thread>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/stitch.hpp"
#include "runtime/system.hpp"

namespace frame::runtime {
namespace {

TimingParams attribution_timing() {
  TimingParams params;
  params.delta_pb = milliseconds(5);
  params.delta_bs_edge = milliseconds(1);
  params.delta_bs_cloud = milliseconds(20);
  params.delta_bb = milliseconds(1);
  params.failover_x = milliseconds(60);
  return params;
}

/// One zero-loss (replicated) and one loss-tolerant topic, 50 ms period:
/// enough dispatches in a second without risking tracer-ring overflow.
std::vector<ProxyGroup> attribution_deployment() {
  return {ProxyGroup{
      milliseconds(50),
      {TopicSpec{0, milliseconds(50), milliseconds(150), 0, 2,
                 Destination::kEdge},
       TopicSpec{1, milliseconds(50), milliseconds(150), 3, 0,
                 Destination::kEdge}}}};
}

class StageAttributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset_all();
  }
  void TearDown() override { obs::set_enabled(false); }
};

TEST_F(StageAttributionTest, HistogramsSumToStitchedDispatchSpan) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.timing = attribution_timing();
  EdgeSystem system(options, attribution_deployment());
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  system.stop();

  const obs::TraceDump dump = system.trace_dump();
  ASSERT_EQ(dump.dropped, 0u)
      << "tracer ring overflowed; the stitched timeline is incomplete and "
         "the comparison below would be apples-to-oranges";
  const obs::StitchReport report = obs::stitch({dump});
  ASSERT_GT(report.dispatch_span.count(), 10u);
  ASSERT_EQ(report.dispatch_span.count(), report.dispatch_queue_delay.count());

  const auto snap = obs::collect_snapshot(0);
  const obs::LatencyRecorder::Snapshot* queue_delay = nullptr;
  const obs::LatencyRecorder::Snapshot* service = nullptr;
  for (const auto& [name, latency] : snap.metrics.latencies) {
    if (name == "frame_dispatch_queue_delay_ns") queue_delay = &latency;
    if (name == "frame_dispatch_service_ns") service = &latency;
  }
  ASSERT_NE(queue_delay, nullptr);
  ASSERT_NE(service, nullptr);

  // Same population: every executed dispatch recorded one sample in each
  // histogram and one kDispatchDone span.
  EXPECT_EQ(queue_delay->count(), service->count());
  EXPECT_EQ(queue_delay->count(), report.dispatch_span.count());

  // queue_delay + service == span holds exactly per message (identical
  // clock reads on both sides), so the sums must match; the tolerance
  // only absorbs floating-point accumulation across samples.
  const double hist_sum =
      queue_delay->mean() * static_cast<double>(queue_delay->count()) +
      service->mean() * static_cast<double>(service->count());
  const double span_sum = report.dispatch_span.mean() *
                          static_cast<double>(report.dispatch_span.count());
  EXPECT_NEAR(hist_sum, span_sum, span_sum * 0.01 + 1000.0);

  // The stitched split agrees with the registry's split too.
  const double stitched_qd_sum =
      report.dispatch_queue_delay.mean() *
      static_cast<double>(report.dispatch_queue_delay.count());
  const double hist_qd_sum =
      queue_delay->mean() * static_cast<double>(queue_delay->count());
  EXPECT_NEAR(stitched_qd_sum, hist_qd_sum, span_sum * 0.01 + 1000.0);

  // Replicate jobs got the same treatment (topic 0 is replicated).
  bool saw_replicate_stage = false;
  for (const auto& [name, latency] : snap.metrics.latencies) {
    if (name == "frame_replicate_queue_delay_ns" && latency.count() > 0) {
      saw_replicate_stage = true;
    }
  }
  EXPECT_TRUE(saw_replicate_stage);
}

TEST_F(StageAttributionTest, StageSeriesVisibleInExporters) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.timing = attribution_timing();
  EdgeSystem system(options, attribution_deployment());
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  system.stop();

  const auto snap = obs::collect_snapshot(0);

  // /metrics: summary quantiles plus the full log-binned histogram with
  // cumulative le buckets for the per-stage series.
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE frame_dispatch_queue_delay_ns summary"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE frame_dispatch_queue_delay_ns_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("frame_dispatch_queue_delay_ns_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE frame_dispatch_service_ns_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("frame_replicate_queue_delay_ns"), std::string::npos);

  // /snapshot.json: the same series carry a non-empty "hist" array of
  // [upper-edge-ns, count] pairs.
  const std::string json = obs::to_json(snap);
  const auto qd_pos = json.find("\"frame_dispatch_queue_delay_ns\"");
  ASSERT_NE(qd_pos, std::string::npos);
  const auto hist_pos = json.find("\"hist\":[", qd_pos);
  ASSERT_NE(hist_pos, std::string::npos);
  EXPECT_NE(json[hist_pos + 8], ']') << "histogram exported but empty";
  EXPECT_NE(json.find("\"frame_dispatch_service_ns\""), std::string::npos);
}

}  // namespace
}  // namespace frame::runtime
