#include "bench_env.hpp"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/export.hpp"

namespace frame::bench {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

std::string git_short_sha(const std::string& repo_root) {
  const std::string cmd =
      "git -C '" + repo_root + "' rev-parse --short=12 HEAD 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&now, &tm) == nullptr) return "unknown";
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

}  // namespace

BenchEnv capture_bench_env(const std::string& repo_root) {
  BenchEnv env;
  env.git_sha = git_short_sha(repo_root);
  env.date = utc_date();
  env.num_cpus = static_cast<int>(std::thread::hardware_concurrency());
  env.build = library_build_info();
  // CPU frequency scaling turns ns/op numbers into governor noise; assert
  // the state into the context so a diff across machines is explainable.
  const std::string governor = read_first_line(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (!governor.empty()) {
    env.governor = governor;
    env.cpu_scaling = governor == "performance" ? "pinned" : "active";
  } else {
    env.governor = "none";
    env.cpu_scaling = "none";  // no cpufreq: containers/VMs, fixed clock
  }
  env.gated = bench_grade_build();
  return env;
}

std::string bench_report_json(const std::string& suite, const BenchEnv& env,
                              const std::vector<BenchSeries>& series) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"frame-bench-v1\",\n  \"suite\": \""
      << obs::json_escape(suite) << "\",\n  \"context\": {\n";
  out << "    \"git_sha\": \"" << obs::json_escape(env.git_sha) << "\",\n";
  out << "    \"date\": \"" << obs::json_escape(env.date) << "\",\n";
  out << "    \"library_build_type\": \""
      << obs::json_escape(env.build.build_type) << "\",\n";
  out << "    \"optimized\": " << (env.build.optimized ? "true" : "false")
      << ",\n";
  out << "    \"sanitizer\": \"" << obs::json_escape(env.build.sanitizer)
      << "\",\n";
  out << "    \"num_cpus\": " << env.num_cpus << ",\n";
  out << "    \"governor\": \"" << obs::json_escape(env.governor) << "\",\n";
  out << "    \"cpu_scaling\": \"" << obs::json_escape(env.cpu_scaling)
      << "\",\n";
  out << "    \"gated\": " << (env.gated ? "true" : "false") << "\n  },\n";
  out << "  \"series\": {";
  bool first = true;
  out.setf(std::ios::fixed);
  out.precision(1);
  for (const auto& s : series) {
    out << (first ? "" : ",") << "\n    \"" << obs::json_escape(s.name)
        << "\": {\"unit\": \"" << obs::json_escape(s.unit)
        << "\", \"value\": " << s.value;
    for (const auto& [p, v] : s.percentiles) {
      out << ", \"" << obs::json_escape(p) << "\": " << v;
    }
    out << ", \"gated\": " << (s.gated ? "true" : "false") << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  return out.str();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out.flush());
}

}  // namespace frame::bench
