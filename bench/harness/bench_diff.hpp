// Bench-report model and noise-aware regression differ.
//
// bench_all writes one canonical JSON document per suite ("frame-bench-v1"):
// a context block identifying the build (git sha, library build type,
// sanitizer, CPU/governor fingerprint) and a set of named series, each with
// a headline value, a unit, optional percentiles, and a `gated` flag.  This
// module parses those documents and compares two of them: per-series
// verdicts (improved / regressed / within-noise / new / removed) with a
// relative threshold plus an absolute noise floor, where only gated series
// can fail the overall verdict.  scripts/bench.sh gates on the
// frame_bench_diff CLI built from this, and scripts/check.sh runs it on
// every document bench_all writes.  bench_all includes this header only for
// BenchSeries: it links frame_release, which already holds every src/
// object, so the differ's own object code stays out of its link.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace frame::bench {

/// One measured series from a bench JSON.
struct BenchSeries {
  std::string name;
  std::string unit;   ///< "ns/op", "ns", "items/s", ...
  double value = 0;   ///< headline number the diff compares
  /// Optional percentile breakdown, e.g. {"p50", 1234.0}.  Informational;
  /// the diff verdict looks only at `value`.
  std::vector<std::pair<std::string, double>> percentiles;
  bool gated = true;  ///< false = informational, never fails the diff
};

/// A parsed "frame-bench-v1" document.
struct BenchReport {
  std::string suite;             ///< "micro", "tcp"
  std::string git_sha;
  std::string build_type;        ///< library_build_type from the context
  std::string sanitizer;         ///< "none" or the sanitizer name
  std::string date;
  int num_cpus = 0;
  /// Whole-file gate: false when the harness refused to vouch for the
  /// numbers (debug/sanitized build, unknown CPU scaling).  An ungated
  /// file disables regression gating for the whole diff.
  bool gated = true;
  std::vector<BenchSeries> series;
};

/// Parses a frame-bench-v1 document.  On failure returns nullopt and, if
/// `error` is non-null, stores a one-line reason.
std::optional<BenchReport> parse_bench_report(std::string_view json,
                                              std::string* error = nullptr);

struct BenchDiffOptions {
  /// Relative change (vs the old value) beyond which a series counts as
  /// moved.  0.10 = the 10% regression gate.
  double rel_threshold = 0.10;
  /// Absolute floor for nanosecond-unit series: deltas under this many ns
  /// are noise regardless of their relative size (sub-100ns swings on a
  /// shared box mean nothing).
  double abs_floor_ns = 50.0;
};

enum class SeriesVerdict {
  kWithinNoise,
  kImproved,
  kRegressed,
  kNew,      ///< present only in the new report
  kRemoved,  ///< present only in the old report
};

std::string_view to_string(SeriesVerdict v);

struct SeriesDiff {
  std::string name;
  std::string unit;
  double old_value = 0;
  double new_value = 0;
  /// (new - old) / old; 0 when old == 0 or the series is one-sided.
  double rel_change = 0;
  bool higher_is_better = false;  ///< rate units ("/s") invert the gate
  bool gated = true;
  SeriesVerdict verdict = SeriesVerdict::kWithinNoise;
};

struct BenchDiffResult {
  std::vector<SeriesDiff> series;  ///< old-report order, then new-only
  /// True when at least one gated series regressed past the threshold.
  bool regression = false;
  /// True when either input file was ungated: the diff is informational
  /// and `regression` is forced false.
  bool gating_disabled = false;
  /// True when the two reports were measured under different conditions
  /// (library build type, CPU count or sanitizer differ): the numbers are
  /// not comparable, so gating is disabled rather than producing a bogus
  /// pass/fail.  `provenance_reason` says which field(s) diverged.
  bool provenance_mismatch = false;
  std::string provenance_reason;
};

/// Compares two reports series-by-series (matched by name).
BenchDiffResult diff_bench_reports(const BenchReport& old_report,
                                   const BenchReport& new_report,
                                   const BenchDiffOptions& options = {});

/// Human-readable comparison table (one row per series).
std::string bench_diff_table(const BenchDiffResult& diff);

/// One machine-parseable line: "bench-diff: ok|REGRESSION|ungated ..."
std::string bench_diff_verdict(const BenchDiffResult& diff);

}  // namespace frame::bench
