// Exporter golden checks: drive the global instruments to known values and
// assert the exact lines/fragments each format must contain.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace frame::obs {
namespace {

/// Seeds the global registry/SLO monitor/tracer with a small known state.
ObsSnapshot known_snapshot() {
  reset_all();
  registry().counter("test_export_events_total").add(42);
  registry().gauge("test_export_depth").set(-3);
  LatencyRecorder& lat = registry().latency("test_export_latency_ns");
  lat.record(1e6);  // 1 ms

  TopicSpec spec{0, milliseconds(100), milliseconds(150), 2, 1,
                 Destination::kEdge};
  const TimePoint now = seconds(1);
  slo().configure({spec});
  slo().on_dispatch_executed(0, milliseconds(10), now);
  slo().on_dispatch_executed(0, milliseconds(-1), now);
  slo().on_replication_executed(0, milliseconds(5), now);
  slo().on_delivery(0, 1, milliseconds(120), now);
  slo().on_delivery(0, 4, milliseconds(160), now);  // late; streak of 2

  SpanEvent event;
  event.kind = SpanKind::kDelivered;
  event.topic = 0;
  event.seq = 1;
  tracer().record(event);
  return collect_snapshot(/*max_spans=*/16);
}

TEST(Export, JsonContainsInstrumentsAndTopicAccount) {
  const std::string json = to_json(known_snapshot());
  EXPECT_NE(json.find("\"test_export_events_total\": 42"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test_export_depth\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"test_export_latency_ns\": {\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"topic\":0,\"li\":2,\"di_ms\":150.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"dispatches\":2,\"dispatch_misses\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"deliveries\":2,\"e2e_misses\":1"), std::string::npos);
  EXPECT_NE(json.find("\"losses_total\":2,\"max_loss_streak\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"loss_budget_exceeded\":false"), std::string::npos);
  EXPECT_NE(json.find("\"tracer\": {\"recorded\": 1, \"contention_drops\": 0, "
                      "\"dropped_total\": 0}"),
            std::string::npos);
}

TEST(Export, PrometheusTypesAndSeries) {
  const std::string prom = to_prometheus(known_snapshot());
  EXPECT_NE(prom.find("# TYPE test_export_events_total counter\n"
                      "test_export_events_total 42\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE test_export_depth gauge\n"
                      "test_export_depth -3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_export_latency_ns summary\n"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_latency_ns{quantile=\"0.5\"} 1000000.0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_latency_ns_count 1\n"), std::string::npos);
  EXPECT_NE(prom.find("frame_topic_dispatch_misses_total{topic=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("frame_topic_max_loss_streak{topic=\"0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("frame_topic_e2e_latency_ns{topic=\"0\",quantile="),
            std::string::npos);
}

TEST(Export, TableShowsTopicRowAndTracerLine) {
  const std::string table = to_table(known_snapshot());
  EXPECT_NE(table.find("== per-topic deadline & latency accounting =="),
            std::string::npos);
  // Topic row: id 0, Li 2, Di 150.0, 2 deliveries, within the loss budget.
  EXPECT_NE(table.find("0      2      150.0"), std::string::npos) << table;
  EXPECT_NE(table.find("ok"), std::string::npos);
  EXPECT_NE(table.find("test_export_events_total"), std::string::npos);
  EXPECT_NE(table.find("spans recorded 1 (dropped 0: contention 0"),
            std::string::npos);
  // No crash gauge was set: the failover timeline is omitted.
  EXPECT_EQ(table.find("failover timeline"), std::string::npos);
}

TEST(Export, FailoverTimelineAppearsWithCrashGauges) {
  reset_all();
  registry().gauge("frame_failover_crash_at_ns").set(1000000000);
  registry().gauge("frame_failover_detected_at_ns").set(1030000000);
  registry().gauge("frame_failover_promotion_at_ns").set(1031000000);
  registry().gauge("frame_failover_redirect_at_ns").set(1040000000);
  const std::string table = to_table(collect_snapshot(0));
  EXPECT_NE(table.find("== failover timeline =="), std::string::npos);
  EXPECT_NE(table.find("crash injected        t=1000.000 ms"),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("failure detected      t=1030.000 ms  (+30.000 ms)"),
            std::string::npos);
  EXPECT_NE(
      table.find(
          "publishers redirected t=1040.000 ms  (+40.000 ms)  <- measured x"),
      std::string::npos);
}

TEST(Export, StageSeriesCarryLogBinnedHistograms) {
  reset_all();
  // Per-stage attribution series (suffix _queue_delay_ns/_service_ns) get
  // their full log-binned shape exported; ordinary latency series stay as
  // compact summaries.
  LatencyRecorder& stage = registry().latency("test_stage_service_ns");
  stage.record(1000.0);  // 1 us, twice: both land in the same log bin
  stage.record(1000.0);
  stage.record(1e6);  // 1 ms: a later bin
  registry().latency("test_plain_latency_ns").record(1000.0);
  const ObsSnapshot snap = collect_snapshot(0);

  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE test_stage_service_ns_hist histogram\n"),
            std::string::npos)
      << prom;
  // Cumulative le buckets: the first non-empty bucket holds the two 1 us
  // samples, +Inf closes at the full count.
  const auto first_bucket = prom.find("test_stage_service_ns_hist_bucket{le=");
  ASSERT_NE(first_bucket, std::string::npos);
  const auto line_end = prom.find('\n', first_bucket);
  EXPECT_EQ(prom.substr(line_end - 2, 2), " 2")
      << prom.substr(first_bucket, line_end - first_bucket);
  EXPECT_NE(prom.find("test_stage_service_ns_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("test_stage_service_ns_hist_sum 1002000.0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("test_stage_service_ns_hist_count 3\n"),
            std::string::npos);
  // The plain series exports a summary only — no histogram TYPE line.
  EXPECT_NE(prom.find("# TYPE test_plain_latency_ns summary\n"),
            std::string::npos);
  EXPECT_EQ(prom.find("test_plain_latency_ns_hist"), std::string::npos);

  const std::string json = to_json(snap);
  const auto stage_pos = json.find("\"test_stage_service_ns\"");
  ASSERT_NE(stage_pos, std::string::npos);
  const auto hist_pos = json.find("\"hist\":[[", stage_pos);
  ASSERT_NE(hist_pos, std::string::npos) << json;
  // Two non-empty bins: [edge, 2] then [edge, 1].
  const auto hist_end = json.find("]]", hist_pos) + 2;
  const std::string hist = json.substr(hist_pos, hist_end - hist_pos);
  EXPECT_NE(hist.find(",2],["), std::string::npos) << hist;
  EXPECT_NE(hist.find(",1]"), std::string::npos) << hist;
  // Plain latency series carry no "hist" member.
  const auto plain_pos = json.find("\"test_plain_latency_ns\"");
  ASSERT_NE(plain_pos, std::string::npos);
  const auto plain_end = json.find('}', plain_pos);
  EXPECT_EQ(json.substr(plain_pos, plain_end - plain_pos).find("\"hist\""),
            std::string::npos);
}

TEST(Export, PrometheusEmitsTraceCounters) {
  const std::string prom = to_prometheus(known_snapshot());
  EXPECT_NE(prom.find("# TYPE frame_trace_recorded_total counter\n"
                      "frame_trace_recorded_total 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE frame_trace_dropped_total counter\n"
                      "frame_trace_dropped_total 0\n"),
            std::string::npos);
}

TEST(Export, PrometheusNameSanitization) {
  EXPECT_EQ(prometheus_sanitize_name("frame_events_total"),
            "frame_events_total");
  EXPECT_EQ(prometheus_sanitize_name("queue depth:now"), "queue_depth:now");
  EXPECT_EQ(prometheus_sanitize_name("9lives"), "_lives");
  EXPECT_EQ(prometheus_sanitize_name("bad\nname\"with\\stuff"),
            "bad_name_with_stuff");
  EXPECT_EQ(prometheus_sanitize_name("d\xC3\xA9j\xC3\xA0_vu"), "d__j___vu");
  EXPECT_EQ(prometheus_sanitize_name(""), "_");
}

TEST(Export, PrometheusLabelEscaping) {
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("quote\"back\\slash"),
            "quote\\\"back\\\\slash");
  EXPECT_EQ(prometheus_escape_label("line\nbreak"), "line\\nbreak");
  // UTF-8 passes through untouched: label values are opaque strings.
  EXPECT_EQ(prometheus_escape_label("d\xC3\xA9j\xC3\xA0"), "d\xC3\xA9j\xC3\xA0");
}

TEST(Export, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there\nnewline\rret"),
            "tab\\there\\nnewline\\rret");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Export, HostileInstrumentNamesProduceValidExposition) {
  reset_all();
  registry().counter("bad name\nwith \"quotes\"").add(7);
  const std::string prom = to_prometheus(collect_snapshot(0));
  // No raw newline inside a metric name: every line starts with a comment
  // marker or a [a-zA-Z_:] name byte.
  EXPECT_NE(prom.find("# TYPE bad_name_with__quotes_ counter\n"
                      "bad_name_with__quotes_ 7\n"),
            std::string::npos)
      << prom;
  const std::string json = to_json(collect_snapshot(0));
  EXPECT_NE(json.find("\"bad name\\nwith \\\"quotes\\\"\": 7"),
            std::string::npos)
      << json;
}

TEST(Export, RingOverflowSurfacesAsDroppedTotal) {
  reset_all();
  SpanEvent event;
  event.kind = SpanKind::kPublish;
  const std::size_t capacity = tracer().capacity();
  for (std::size_t i = 0; i < capacity + 5; ++i) {
    event.seq = i;
    tracer().record(event);
  }
  EXPECT_EQ(tracer().overflow_drops(), 5u);
  EXPECT_EQ(tracer().dropped_total(), 5u + tracer().contention_drops());
  const std::string prom = to_prometheus(collect_snapshot(0));
  EXPECT_NE(prom.find("frame_trace_dropped_total 5\n"), std::string::npos)
      << prom;
  reset_all();  // don't leak a saturated ring into other tests
}

TEST(Export, HooksAreInertWhenDisabledAndRecordWhenEnabled) {
  if (!kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  reset_all();
  ASSERT_FALSE(enabled());
  hooks::publish(0, 1, milliseconds(1));
  EXPECT_EQ(registry().counter("frame_publisher_created_total").value(), 0u);
  {
    EnabledScope scope(true);
    hooks::publish(0, 2, milliseconds(2));
  }
  EXPECT_EQ(registry().counter("frame_publisher_created_total").value(), 1u);
}

}  // namespace
}  // namespace frame::obs
