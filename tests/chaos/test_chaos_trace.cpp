// Chaos + tracing: crash the Primary mid-burst over real TCP sockets and
// prove the guarantees *from the stitched trace itself* — exactly-once
// delivery per (subscriber, seq), a measured failover x within the
// detector's bound, and per-hop numbers that agree with what the metrics
// registry and the SLO monitor's per-topic account measured independently.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "chaos_util.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/stitch.hpp"
#include "runtime/system.hpp"

namespace frame::runtime {
namespace {

using chaos::ChaosTest;

constexpr Duration kSchedulingMargin = milliseconds(1500);

/// |a - b| within 10% of b (b > 0).
void expect_within_ten_percent(double a, double b, const char* what) {
  ASSERT_GT(b, 0.0) << what;
  EXPECT_LE(std::abs(a - b), 0.10 * b)
      << what << ": stitched " << a << " vs independent " << b;
}

class ChaosTraceScenario : public ChaosTest {
 protected:
  void TearDown() override {
    obs::set_enabled(false);
    ChaosTest::TearDown();
  }
};

// One dense-burst deployment: short periods so the crash lands mid-burst,
// few enough messages that the 4096-slot tracer ring never wraps (the
// test asserts dropped_total == 0, so the timeline is provably complete).
TEST_F(ChaosTraceScenario, StitchedTimelineProvesExactlyOnceAndFailoverBound) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  use_seed(1008);
  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.transport = Transport::kTcp;
  const std::vector<ProxyGroup> proxies = {
      ProxyGroup{milliseconds(25),
                 {TopicSpec{0, milliseconds(100), milliseconds(150), 0, 2,
                            Destination::kEdge}}},
      ProxyGroup{milliseconds(25),
                 {TopicSpec{1, milliseconds(100), milliseconds(150), 3, 0,
                            Destination::kEdge}}},
  };

  obs::set_enabled(true);
  obs::reset_all();
  EdgeSystem system(options, proxies);
  obs::slo().configure(system.topics());
  system.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  system.crash_primary();
  ASSERT_TRUE(system.wait_for_failover(seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  system.stop();

  // Stitch this process's ring; serialize through the wire format so the
  // cross-process path (broker dumps concatenated by frame_analyze) is the
  // path under test.
  const std::string serialized = obs::serialize_dump(system.trace_dump());
  const auto dumps = obs::parse_dumps(serialized);
  ASSERT_EQ(dumps.size(), 1u);
  const obs::StitchReport report = obs::stitch(dumps);

  // The ring must not have wrapped, or "absence of a second delivery"
  // proves nothing.
  ASSERT_EQ(report.dropped_total, 0u)
      << "tracer ring wrapped; timeline incomplete";
  ASSERT_GT(report.trace_count, 10u) << "barely published";
  ASSERT_GT(report.delivered_events, 10u);

  // Exactly-once: no (subscriber node, trace) saw kDelivered twice, and
  // the explicit per-seq scan agrees with the stitcher's own counter.
  EXPECT_EQ(report.duplicate_deliveries, 0u);
  std::map<std::tuple<TopicId, SeqNo, NodeId>, int> delivered;
  for (const auto& se : report.events) {
    if (se.event.kind != obs::SpanKind::kDelivered) continue;
    const auto key =
        std::make_tuple(se.event.topic, se.event.seq, se.event.node);
    EXPECT_EQ(++delivered[key], 1)
        << "topic " << se.event.topic << " seq " << se.event.seq
        << " delivered twice to node " << se.event.node;
  }

  // Failover, measured purely from spans: crash -> first redirect.
  ASSERT_GE(report.crash_wall, 0) << "crash marker missing from trace";
  ASSERT_GE(report.redirect_wall, 0) << "redirect marker missing";
  ASSERT_GE(report.measured_x, 0);
  EXPECT_LE(report.measured_x, system.detection_bound() + kSchedulingMargin)
      << "stitched x " << to_millis(report.measured_x) << " ms against a "
      << to_millis(system.detection_bound()) << " ms detection bound";

  // The trace must agree with the independent accounting (same events,
  // two bookkeepers): e2e mean vs the registry's latency recorder, x vs
  // the per-publisher minimum the redirect hook recorded.
  const auto metrics = obs::registry().snapshot();
  const obs::LatencyRecorder::Snapshot* e2e_metric = nullptr;
  const obs::LatencyRecorder::Snapshot* x_metric = nullptr;
  for (const auto& [name, latency] : metrics.latencies) {
    if (name == "frame_e2e_latency_ns") e2e_metric = &latency;
    if (name == "frame_failover_x_ns") x_metric = &latency;
  }
  ASSERT_NE(e2e_metric, nullptr);
  ASSERT_EQ(report.e2e.count(), e2e_metric->count());
  expect_within_ten_percent(report.e2e.mean(), e2e_metric->mean(), "e2e mean");
  ASSERT_NE(x_metric, nullptr);
  expect_within_ten_percent(static_cast<double>(report.measured_x),
                            x_metric->min(), "measured x");

  // Per-hop ΔPB: the stitched wall-clock difference must reproduce the
  // observed ΔPB each admit span carried (same clock, two derivations).
  expect_within_ten_percent(
      report.delta_pb.mean(),
      [&] {
        OnlineStats observed;
        std::map<std::uint64_t, bool> seen;
        for (const auto& se : report.events) {
          if (se.event.kind != obs::SpanKind::kProxyAdmit) continue;
          if (se.event.delta_pb < 0) continue;
          if (seen[se.event.trace_id]) continue;  // first admit per trace
          seen[se.event.trace_id] = true;
          observed.add(static_cast<double>(se.event.delta_pb));
        }
        return observed.count() > 0 ? observed.mean() : 0.0;
      }(),
      "delta_pb mean");

  // The SLO monitor saw the same deliveries the trace did.
  std::uint64_t accounted_deliveries = 0;
  for (const auto& topic : obs::slo().snapshot_all(obs::slo().latest_now())) {
    if (topic.topic == kInvalidTopic) continue;
    accounted_deliveries += topic.deliveries;
  }
  EXPECT_EQ(report.delivered_events, accounted_deliveries);

  // And the stitched timeline renders as valid Perfetto JSON.
  const std::string json = obs::to_perfetto_json(report);
  const Status valid = obs::validate_perfetto_json(json);
  EXPECT_TRUE(valid.is_ok()) << valid.to_string();
}

}  // namespace
}  // namespace frame::runtime
