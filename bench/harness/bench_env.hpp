// Bench environment capture and canonical report writing.
//
// Every suite bench_all runs is published as one "frame-bench-v1" JSON
// document whose context block fingerprints the run: git sha, date, CPU
// count, cpufreq governor / scaling state, and — crucially — the build
// type and sanitizer of the *linked frame library* (common/build_info),
// not of the harness TU.  A document is `gated` only when the library is
// a bench-grade build (release, optimized, unsanitized); the differ
// (bench_diff.hpp) refuses to fail CI on anything else.
#pragma once

#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "bench_diff.hpp"

namespace frame::bench {

struct BenchEnv {
  std::string git_sha = "unknown";  ///< short sha of HEAD, if git works
  std::string date = "unknown";     ///< YYYY-MM-DD (UTC)
  int num_cpus = 0;
  std::string governor = "none";     ///< cpufreq governor, "none" if absent
  std::string cpu_scaling = "none";  ///< "active" | "none" | "unknown"
  BuildInfo build;                   ///< from the linked frame library
  bool gated = false;                ///< bench_grade_build()
};

/// Captures the environment once.  `repo_root` is where git runs (pass
/// the FRAME_REPO_ROOT compile definition).
BenchEnv capture_bench_env(const std::string& repo_root);

/// Renders one canonical frame-bench-v1 document.
std::string bench_report_json(const std::string& suite, const BenchEnv& env,
                              const std::vector<BenchSeries>& series);

/// Writes `content` to `path` atomically enough for a bench artifact
/// (truncate + write).  Returns false on any I/O error.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace frame::bench
