// frame_bench_diff: compares two frame-bench-v1 JSON reports and gates on
// regressions.
//
//   frame_bench_diff OLD.json NEW.json [--threshold PCT]
//
// Prints a per-series table plus one machine-parseable verdict line.
// Exit codes: 0 = no gated regression, 1 = at least one gated series
// regressed past the threshold, 2 = usage or parse error.  An ungated
// input (debug/sanitized build) downgrades the run to informational and
// cannot fail; scripts/bench.sh relies on exactly this contract.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_diff.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s OLD.json NEW.json [--threshold PCT]\n"
               "  compares two frame-bench-v1 reports; exits 1 when a gated\n"
               "  series regressed more than PCT%% (default 10)\n",
               argv0);
  return 2;
}

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* old_path = nullptr;
  const char* new_path = nullptr;
  frame::bench::BenchDiffOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      options.rel_threshold = std::atof(argv[++i]) / 100.0;
      if (options.rel_threshold <= 0) return usage(argv[0]);
    } else if (old_path == nullptr) {
      old_path = argv[i];
    } else if (new_path == nullptr) {
      new_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (old_path == nullptr || new_path == nullptr) return usage(argv[0]);

  std::string old_text, new_text;
  if (!read_file(old_path, old_text)) {
    std::fprintf(stderr, "frame_bench_diff: cannot read %s\n", old_path);
    return 2;
  }
  if (!read_file(new_path, new_text)) {
    std::fprintf(stderr, "frame_bench_diff: cannot read %s\n", new_path);
    return 2;
  }

  std::string error;
  const auto old_report = frame::bench::parse_bench_report(old_text, &error);
  if (!old_report.has_value()) {
    std::fprintf(stderr, "frame_bench_diff: %s: %s\n", old_path,
                 error.c_str());
    return 2;
  }
  const auto new_report = frame::bench::parse_bench_report(new_text, &error);
  if (!new_report.has_value()) {
    std::fprintf(stderr, "frame_bench_diff: %s: %s\n", new_path,
                 error.c_str());
    return 2;
  }

  const auto diff =
      frame::bench::diff_bench_reports(*old_report, *new_report, options);
  std::printf("old: %s sha=%s build=%s sanitizer=%s%s\n",
              old_report->suite.c_str(), old_report->git_sha.c_str(),
              old_report->build_type.c_str(), old_report->sanitizer.c_str(),
              old_report->gated ? "" : " [UNGATED]");
  std::printf("new: %s sha=%s build=%s sanitizer=%s%s\n",
              new_report->suite.c_str(), new_report->git_sha.c_str(),
              new_report->build_type.c_str(), new_report->sanitizer.c_str(),
              new_report->gated ? "" : " [UNGATED]");
  std::fputs(frame::bench::bench_diff_table(diff).c_str(), stdout);
  if (diff.provenance_mismatch) {
    std::fprintf(stderr,
                 "frame_bench_diff: warning: reports are not comparable "
                 "(%s); regression gating disabled\n",
                 diff.provenance_reason.c_str());
  }
  std::fputs(frame::bench::bench_diff_verdict(diff).c_str(), stdout);
  return diff.regression ? 1 : 0;
}
