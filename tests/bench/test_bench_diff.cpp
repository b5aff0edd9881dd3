// Golden tests for the frame-bench-v1 parser and the noise-aware differ
// behind frame_bench_diff / scripts/bench.sh.
#include "bench/harness/bench_diff.hpp"

#include <gtest/gtest.h>

#include <string>

namespace frame::bench {
namespace {

std::string report_json(const std::string& series_body,
                        bool gated = true) {
  return std::string(R"({
  "schema": "frame-bench-v1",
  "suite": "micro",
  "context": {
    "git_sha": "abc123def456",
    "date": "2026-08-08",
    "library_build_type": "release",
    "optimized": true,
    "sanitizer": "none",
    "num_cpus": 4,
    "governor": "performance",
    "cpu_scaling": "pinned",
    "gated": )") +
         (gated ? "true" : "false") + R"(
  },
  "series": {)" + series_body +
         "}\n}\n";
}

std::string one_series(const std::string& name, double value,
                       const std::string& unit = "ns/op",
                       bool gated = true) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"unit\": \"%s\", \"value\": %.1f, \"gated\": %s}",
                name.c_str(), unit.c_str(), value, gated ? "true" : "false");
  return buf;
}

TEST(BenchReportParse, GoldenDocument) {
  const std::string doc = report_json(
      one_series("job_queue_push_pop_edf_ns", 106.5) + ",\n" +
      R"("tcp_pingpong_rtt_ns": {"unit": "ns", "value": 52000.0,
          "p50": 52000.0, "p90": 61000.0, "p99": 90000.0, "gated": true})");
  std::string error;
  const auto report = parse_bench_report(doc, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->suite, "micro");
  EXPECT_EQ(report->git_sha, "abc123def456");
  EXPECT_EQ(report->build_type, "release");
  EXPECT_EQ(report->sanitizer, "none");
  EXPECT_EQ(report->num_cpus, 4);
  EXPECT_TRUE(report->gated);
  ASSERT_EQ(report->series.size(), 2u);
  EXPECT_EQ(report->series[0].name, "job_queue_push_pop_edf_ns");
  EXPECT_DOUBLE_EQ(report->series[0].value, 106.5);
  // Percentile keys are hoovered up as pNN members.
  ASSERT_EQ(report->series[1].percentiles.size(), 3u);
  EXPECT_EQ(report->series[1].percentiles[0].first, "p50");
  EXPECT_DOUBLE_EQ(report->series[1].percentiles[2].second, 90000.0);
}

TEST(BenchReportParse, RejectsWrongSchema) {
  std::string error;
  EXPECT_FALSE(parse_bench_report(R"({"schema": "nope", "series": {}})",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find("frame-bench-v1"), std::string::npos);
}

TEST(BenchReportParse, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(parse_bench_report("{\"schema\": ", &error).has_value());
  EXPECT_FALSE(parse_bench_report("", &error).has_value());
  EXPECT_FALSE(parse_bench_report("[1,2,3]", &error).has_value());
  // Nesting far past the parser's depth cap fails cleanly instead of
  // recursing off the end of the stack.
  EXPECT_FALSE(
      parse_bench_report(std::string(1000000, '['), &error).has_value());
  std::string deep_object;
  for (int i = 0; i < 1000000; ++i) deep_object += "{\"a\":";
  EXPECT_FALSE(parse_bench_report(deep_object, &error).has_value());
}

TEST(BenchReportParse, RejectsMissingSeriesOrContext) {
  std::string error;
  EXPECT_FALSE(parse_bench_report(
                   R"({"schema": "frame-bench-v1", "context": {}})", &error)
                   .has_value());
  EXPECT_NE(error.find("series"), std::string::npos);
  EXPECT_FALSE(parse_bench_report(
                   R"({"schema": "frame-bench-v1", "series": {}})", &error)
                   .has_value());
  EXPECT_NE(error.find("context"), std::string::npos);
}

TEST(BenchReportParse, RejectsSeriesWithoutValue) {
  std::string error;
  const std::string doc =
      report_json(R"("broken_ns": {"unit": "ns/op", "gated": true})");
  EXPECT_FALSE(parse_bench_report(doc, &error).has_value());
  EXPECT_NE(error.find("value"), std::string::npos);
}

BenchReport parse_ok(const std::string& doc) {
  std::string error;
  auto report = parse_bench_report(doc, &error);
  EXPECT_TRUE(report.has_value()) << error;
  return *report;
}

TEST(BenchDiff, RegressionPastThresholdFails) {
  const auto old_report = parse_ok(report_json(one_series("hot_ns", 100.0)));
  const auto new_report = parse_ok(report_json(one_series("hot_ns", 160.0)));
  const auto diff = diff_bench_reports(old_report, new_report);
  ASSERT_EQ(diff.series.size(), 1u);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kRegressed);
  EXPECT_TRUE(diff.regression);
  EXPECT_NE(bench_diff_verdict(diff).find("REGRESSION"), std::string::npos);
}

TEST(BenchDiff, ImprovementDoesNotFail) {
  const auto old_report = parse_ok(report_json(one_series("hot_ns", 200.0)));
  const auto new_report = parse_ok(report_json(one_series("hot_ns", 120.0)));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kImproved);
  EXPECT_FALSE(diff.regression);
}

TEST(BenchDiff, WithinNoiseBelowRelThreshold) {
  // +8% on a large value: above the absolute floor but inside 10%.
  const auto old_report =
      parse_ok(report_json(one_series("hot_ns", 10000.0)));
  const auto new_report =
      parse_ok(report_json(one_series("hot_ns", 10800.0)));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kWithinNoise);
  EXPECT_FALSE(diff.regression);
}

TEST(BenchDiff, AbsoluteFloorAbsorbsTinyNsSwings) {
  // +30% relative but only +30ns absolute: noise on any real machine.
  const auto old_report = parse_ok(report_json(one_series("tiny_ns", 100.0)));
  const auto new_report = parse_ok(report_json(one_series("tiny_ns", 130.0)));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kWithinNoise);
  EXPECT_FALSE(diff.regression);
}

TEST(BenchDiff, RateUnitsInvertTheGate) {
  // Throughput dropping 20% is a regression even though the value fell.
  const auto old_report = parse_ok(
      report_json(one_series("fanin_items_per_s", 100000.0, "items/s")));
  const auto new_report = parse_ok(
      report_json(one_series("fanin_items_per_s", 80000.0, "items/s")));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kRegressed);
  EXPECT_TRUE(diff.regression);

  // ...and a throughput increase is an improvement, not a regression.
  const auto diff_up = diff_bench_reports(new_report, old_report);
  EXPECT_EQ(diff_up.series[0].verdict, SeriesVerdict::kImproved);
  EXPECT_FALSE(diff_up.regression);
}

TEST(BenchDiff, UngatedSeriesNeverFails) {
  const auto old_report = parse_ok(
      report_json(one_series("tail_ns", 1000.0, "ns", /*gated=*/false)));
  const auto new_report = parse_ok(
      report_json(one_series("tail_ns", 5000.0, "ns", /*gated=*/false)));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kRegressed);
  EXPECT_FALSE(diff.regression);  // regressed but not gated
}

TEST(BenchDiff, UngatedFileDisablesGating) {
  const auto old_report = parse_ok(report_json(one_series("hot_ns", 100.0)));
  const auto new_report = parse_ok(
      report_json(one_series("hot_ns", 1000.0), /*gated=*/false));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_TRUE(diff.gating_disabled);
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(bench_diff_verdict(diff).find("ungated"), std::string::npos);
}

TEST(BenchDiff, NewAndRemovedSeriesAreReportedNotFailed) {
  const auto old_report = parse_ok(report_json(one_series("gone_ns", 10.0)));
  const auto new_report = parse_ok(report_json(one_series("born_ns", 20.0)));
  const auto diff = diff_bench_reports(old_report, new_report);
  ASSERT_EQ(diff.series.size(), 2u);
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kRemoved);
  EXPECT_EQ(diff.series[1].verdict, SeriesVerdict::kNew);
  EXPECT_FALSE(diff.regression);
  const std::string table = bench_diff_table(diff);
  EXPECT_NE(table.find("gone_ns"), std::string::npos);
  EXPECT_NE(table.find("born_ns"), std::string::npos);
}

std::string report_json_ctx(const std::string& series_body,
                            const std::string& build_type, int num_cpus,
                            const std::string& sanitizer = "none") {
  return std::string(R"({
  "schema": "frame-bench-v1",
  "suite": "micro",
  "context": {
    "git_sha": "abc123def456",
    "library_build_type": ")") +
         build_type + R"(",
    "sanitizer": ")" + sanitizer +
         R"(",
    "num_cpus": )" + std::to_string(num_cpus) +
         R"(,
    "gated": true
  },
  "series": {)" + series_body +
         "}\n}\n";
}

TEST(BenchDiff, BuildTypeMismatchDisablesGating) {
  // A debug-built "regression" against a release baseline is the compiler
  // flags, not the code: the diff must refuse to gate.
  const auto old_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 100.0), "release", 4));
  const auto new_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 1000.0), "debug", 4));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_TRUE(diff.provenance_mismatch);
  EXPECT_TRUE(diff.gating_disabled);
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(diff.provenance_reason.find("build_type"), std::string::npos);
  EXPECT_NE(diff.provenance_reason.find("release"), std::string::npos);
  EXPECT_NE(diff.provenance_reason.find("debug"), std::string::npos);
  // The series verdict still shows the movement, informationally.
  EXPECT_EQ(diff.series[0].verdict, SeriesVerdict::kRegressed);
  const std::string verdict = bench_diff_verdict(diff);
  EXPECT_NE(verdict.find("ungated"), std::string::npos);
  EXPECT_NE(verdict.find("provenance mismatch"), std::string::npos);
}

TEST(BenchDiff, CpuCountMismatchDisablesGating) {
  const auto old_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 100.0), "release", 8));
  const auto new_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 1000.0), "release", 1));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_TRUE(diff.provenance_mismatch);
  EXPECT_TRUE(diff.gating_disabled);
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(diff.provenance_reason.find("num_cpus 8 vs 1"),
            std::string::npos);
}

TEST(BenchDiff, SanitizerMismatchDisablesGating) {
  const auto old_report = parse_ok(
      report_json_ctx(one_series("hot_ns", 100.0), "release", 4, "none"));
  const auto new_report = parse_ok(
      report_json_ctx(one_series("hot_ns", 1000.0), "release", 4, "thread"));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_TRUE(diff.provenance_mismatch);
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(diff.provenance_reason.find("sanitizer"), std::string::npos);
}

TEST(BenchDiff, MultipleProvenanceFieldsListedTogether) {
  const auto old_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 100.0), "release", 8));
  const auto new_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 100.0), "debug", 1));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_NE(diff.provenance_reason.find("build_type"), std::string::npos);
  EXPECT_NE(diff.provenance_reason.find("num_cpus"), std::string::npos);
}

TEST(BenchDiff, MissingProvenanceFieldsDoNotMismatch) {
  // Old baselines may predate the context fields; absence is not a
  // divergence.
  const std::string bare = std::string(R"({
  "schema": "frame-bench-v1",
  "suite": "micro",
  "context": {"git_sha": "abc"},
  "series": {)") + one_series("hot_ns", 100.0) +
                           "}\n}\n";
  const auto old_report = parse_ok(bare);
  const auto new_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 100.0), "release", 4));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_FALSE(diff.provenance_mismatch);
  EXPECT_FALSE(diff.gating_disabled);
}

TEST(BenchDiff, MatchingProvenanceStillGates) {
  const auto old_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 100.0), "release", 4));
  const auto new_report =
      parse_ok(report_json_ctx(one_series("hot_ns", 1000.0), "release", 4));
  const auto diff = diff_bench_reports(old_report, new_report);
  EXPECT_FALSE(diff.provenance_mismatch);
  EXPECT_TRUE(diff.regression);
}

TEST(BenchDiff, CustomThreshold) {
  const auto old_report = parse_ok(report_json(one_series("hot_ns", 1000.0)));
  const auto new_report = parse_ok(report_json(one_series("hot_ns", 1150.0)));
  BenchDiffOptions strict;
  strict.rel_threshold = 0.05;
  EXPECT_TRUE(diff_bench_reports(old_report, new_report, strict).regression);
  BenchDiffOptions loose;
  loose.rel_threshold = 0.20;
  EXPECT_FALSE(diff_bench_reports(old_report, new_report, loose).regression);
}

}  // namespace
}  // namespace frame::bench
