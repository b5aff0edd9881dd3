// framebench: runs one named FRAME workload with a given seed and prints
// every metric with its unit.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off; with --trace 1
// the run is repeated with observability and span recording on, and the
// metrics are the per-layer ones plus the tracing overhead.
//
//   framebench --workload table2_tcp --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 result printed (check "correct"), 1 output check failed,
// 2 bad arguments or a build that is not bench-grade, 3 the workload's
// topic set failed admission.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/build_info.hpp"
#include "obs/obs.hpp"

namespace {

using frame::perf::Metric;
using frame::perf::PhaseResult;
using frame::perf::RunOptions;

struct Workload {
  const char* name;
  frame::perf::WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"table2_tcp", frame::perf::run_table2_tcp},
    {"broker_saturate", frame::perf::run_broker_saturate},
    {"failover_cycles", frame::perf::run_failover_cycles},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "framebench: %s\nusage: framebench --workload "
               "<table2_tcp|broker_saturate|failover_cycles> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-dir <dir>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--span-dir") {
      options.span_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (options.seconds < 1 || options.seconds > 120) {
    return usage("--seconds must be in [1, 120]");
  }
  frame::perf::WorkloadFn run = nullptr;
  for (const auto& w : kWorkloads) {
    if (options.workload == w.name) run = w.run;
  }
  if (run == nullptr) return usage(("unknown workload " + options.workload).c_str());

  // A deployment host ignores SIGPIPE.  TcpConnection flushes with writev,
  // which raises SIGPIPE on a socket whose peer has closed; failover_cycles
  // crashes brokers mid-stream and the signal would kill the run.
  std::signal(SIGPIPE, SIG_IGN);

  const frame::BuildInfo build = frame::library_build_info();
  if (!frame::bench_grade_build()) {
    std::fprintf(stderr,
                 "framebench: refusing to report numbers from a %s build "
                 "(optimized=%d, sanitizer=%s)\n",
                 build.build_type, build.optimized ? 1 : 0, build.sanitizer);
    return 2;
  }

  // Untraced phase: every end-to-end metric.  The traced phase repeats the
  // same workload and seed with observability and span recording on.
  PhaseResult result = run(options, false);
  if (result.attempted == 0 && !result.errors.empty() &&
      result.errors.front().rfind("admission:", 0) == 0) {
    std::fprintf(stderr, "framebench: %s\n", result.errors.front().c_str());
    return 3;
  }
  PhaseResult report = result;
  if (options.trace) {
    frame::obs::set_enabled(true);
    frame::obs::reset_all();
    PhaseResult traced = run(options, true);
    frame::obs::set_enabled(false);
    const auto overhead = [&](const char* name, bool higher_is_better) {
      const double base = result.e2e_value(name);
      const double with = traced.e2e_value(name);
      if (base <= 0.0) return 0.0;
      return 100.0 * (higher_is_better ? base - with : with - base) / base;
    };
    traced.add_layer("obs.overhead_pct", overhead("cpu_us_per_msg", false),
                     "%");
    traced.add_layer("obs.goodput_overhead_pct",
                     overhead("goodput_msgs_per_s", true), "%");
    report = traced;
    report.correct = result.correct && traced.correct;
    report.errors.insert(report.errors.begin(), result.errors.begin(),
                         result.errors.end());
    report.attempted += result.attempted;
    report.failed += result.failed;
  }

  // Provenance: where the numbers came from.
  report.provenance.insert(
      report.provenance.begin(),
      {{"workload", options.workload},
       {"seed", std::to_string(options.seed)},
       {"seconds", std::to_string(options.seconds)},
       {"trace", options.trace ? "1" : "0"},
       {"nproc", std::to_string(std::thread::hardware_concurrency())},
       {"payload_bytes", std::to_string(frame::perf::kPayloadBytes)},
       {"build_type", build.build_type},
       {"optimized", build.optimized ? "true" : "false"},
       {"sanitizer", build.sanitizer},
       {"git_sha", git_sha},
       {"source_digest", source_digest}});
  std::string provenance = "{\"provenance\": {";
  for (std::size_t i = 0; i < report.provenance.size(); ++i) {
    provenance += (i ? ", \"" : "\"") + json_escape(report.provenance[i].first) +
                  "\": \"" + json_escape(report.provenance[i].second) + "\"";
  }
  provenance += "}}";
  std::printf("%s\n", provenance.c_str());

  const std::vector<Metric>& metrics =
      options.trace ? report.layers : report.e2e;
  print_metrics(metrics);
  for (const auto& error : report.errors) {
    std::fprintf(stderr, "framebench: check failed: %s\n", error.c_str());
  }

  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(metrics[i].name) +
           "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + json_escape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
