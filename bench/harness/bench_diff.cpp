#include "bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "obs/json.hpp"

namespace frame::bench {

namespace {

using obs::JsonValue;

bool get_string(const JsonValue& obj, std::string_view key, std::string& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return false;
  out = v->str;
  return true;
}

bool get_number(const JsonValue& obj, std::string_view key, double& out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return false;
  out = v->number;
  return true;
}

/// Missing `gated` defaults to true (a report that does not say otherwise
/// vouches for its numbers).
bool get_gated(const JsonValue& obj) {
  const JsonValue* v = obj.find("gated");
  if (v == nullptr || v->type != JsonValue::Type::kBool) return true;
  return v->boolean;
}

bool fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

bool parse_series(const JsonValue& member, std::string_view name,
                  BenchSeries& out, std::string* error) {
  if (!member.is_object()) return fail(error, "series entry is not an object");
  out.name = std::string(name);
  if (!get_string(member, "unit", out.unit)) {
    return fail(error, "series missing \"unit\"");
  }
  if (!get_number(member, "value", out.value)) {
    return fail(error, "series missing numeric \"value\"");
  }
  out.gated = get_gated(member);
  for (const auto& [key, v] : member.object) {
    if (key.size() >= 2 && key[0] == 'p' && v.is_number() &&
        key.find_first_not_of("0123456789.", 1) == std::string::npos) {
      out.percentiles.emplace_back(key, v.number);
    }
  }
  return true;
}

bool rate_unit(std::string_view unit) {
  return unit.find("/s") != std::string_view::npos;
}

bool ns_unit(std::string_view unit) {
  return unit.rfind("ns", 0) == 0;  // "ns", "ns/op"
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
  }
}

}  // namespace

std::string_view to_string(SeriesVerdict v) {
  switch (v) {
    case SeriesVerdict::kWithinNoise: return "within-noise";
    case SeriesVerdict::kImproved: return "improved";
    case SeriesVerdict::kRegressed: return "REGRESSED";
    case SeriesVerdict::kNew: return "new";
    case SeriesVerdict::kRemoved: return "removed";
  }
  return "unknown";
}

std::optional<BenchReport> parse_bench_report(std::string_view json,
                                              std::string* error) {
  const auto root = obs::parse_json(json);
  if (!root.has_value() || !root->is_object()) {
    fail(error, "not a JSON object");
    return std::nullopt;
  }
  std::string schema;
  if (!get_string(*root, "schema", schema) || schema != "frame-bench-v1") {
    fail(error, "schema is not \"frame-bench-v1\"");
    return std::nullopt;
  }
  BenchReport report;
  get_string(*root, "suite", report.suite);

  const JsonValue* context = root->find("context");
  if (context == nullptr || !context->is_object()) {
    fail(error, "missing \"context\" object");
    return std::nullopt;
  }
  get_string(*context, "git_sha", report.git_sha);
  get_string(*context, "library_build_type", report.build_type);
  get_string(*context, "sanitizer", report.sanitizer);
  get_string(*context, "date", report.date);
  double cpus = 0;
  if (get_number(*context, "num_cpus", cpus)) {
    report.num_cpus = static_cast<int>(cpus);
  }
  report.gated = get_gated(*context);

  const JsonValue* series = root->find("series");
  if (series == nullptr || !series->is_object()) {
    fail(error, "missing \"series\" object");
    return std::nullopt;
  }
  for (const auto& [name, member] : series->object) {
    BenchSeries s;
    if (!parse_series(member, name, s, error)) return std::nullopt;
    report.series.push_back(std::move(s));
  }
  return report;
}

BenchDiffResult diff_bench_reports(const BenchReport& old_report,
                                   const BenchReport& new_report,
                                   const BenchDiffOptions& options) {
  BenchDiffResult result;
  result.gating_disabled = !old_report.gated || !new_report.gated;

  // Provenance gate: numbers measured under different build types, core
  // counts or sanitizers are not comparable — a "regression" would only
  // reflect the changed environment.  Fields missing on either side (old
  // baselines predating them) are skipped rather than treated as moved.
  const auto note_mismatch = [&result](std::string field, std::string a,
                                       std::string b) {
    result.provenance_mismatch = true;
    if (!result.provenance_reason.empty()) result.provenance_reason += ", ";
    result.provenance_reason +=
        std::move(field) + " " + std::move(a) + " vs " + std::move(b);
  };
  if (!old_report.build_type.empty() && !new_report.build_type.empty() &&
      old_report.build_type != new_report.build_type) {
    note_mismatch("build_type", old_report.build_type, new_report.build_type);
  }
  if (old_report.num_cpus > 0 && new_report.num_cpus > 0 &&
      old_report.num_cpus != new_report.num_cpus) {
    note_mismatch("num_cpus", std::to_string(old_report.num_cpus),
                  std::to_string(new_report.num_cpus));
  }
  if (!old_report.sanitizer.empty() && !new_report.sanitizer.empty() &&
      old_report.sanitizer != new_report.sanitizer) {
    note_mismatch("sanitizer", old_report.sanitizer, new_report.sanitizer);
  }
  if (result.provenance_mismatch) result.gating_disabled = true;

  std::unordered_map<std::string_view, const BenchSeries*> new_by_name;
  for (const auto& s : new_report.series) new_by_name[s.name] = &s;

  for (const auto& old_series : old_report.series) {
    SeriesDiff d;
    d.name = old_series.name;
    d.unit = old_series.unit;
    d.old_value = old_series.value;
    d.higher_is_better = rate_unit(old_series.unit);
    const auto it = new_by_name.find(old_series.name);
    if (it == new_by_name.end()) {
      d.verdict = SeriesVerdict::kRemoved;
      d.gated = old_series.gated;
      result.series.push_back(std::move(d));
      continue;
    }
    const BenchSeries& new_series = *it->second;
    new_by_name.erase(it);
    d.new_value = new_series.value;
    // A series gates only when both sides vouch for it.
    d.gated = old_series.gated && new_series.gated;
    if (d.old_value != 0) {
      d.rel_change = (d.new_value - d.old_value) / d.old_value;
    }
    const double abs_change = std::fabs(d.new_value - d.old_value);
    const bool below_floor =
        ns_unit(d.unit) && abs_change < options.abs_floor_ns;
    // "worse" is up for latency-like units, down for rate units.
    const double worse =
        d.higher_is_better ? -d.rel_change : d.rel_change;
    if (below_floor || std::fabs(d.rel_change) <= options.rel_threshold) {
      d.verdict = SeriesVerdict::kWithinNoise;
    } else if (worse > 0) {
      d.verdict = SeriesVerdict::kRegressed;
      if (d.gated && !result.gating_disabled) result.regression = true;
    } else {
      d.verdict = SeriesVerdict::kImproved;
    }
    result.series.push_back(std::move(d));
  }

  // Anything left in the map exists only in the new report.
  for (const auto& new_series : new_report.series) {
    if (new_by_name.find(new_series.name) == new_by_name.end()) continue;
    SeriesDiff d;
    d.name = new_series.name;
    d.unit = new_series.unit;
    d.new_value = new_series.value;
    d.higher_is_better = rate_unit(new_series.unit);
    d.gated = new_series.gated;
    d.verdict = SeriesVerdict::kNew;
    result.series.push_back(std::move(d));
  }
  return result;
}

std::string bench_diff_table(const BenchDiffResult& diff) {
  std::string out;
  appendf(out, "%-40s %14s %14s %8s %6s  %s\n", "series", "old", "new",
          "change", "gated", "verdict");
  for (const auto& d : diff.series) {
    char change[16];
    if (d.verdict == SeriesVerdict::kNew ||
        d.verdict == SeriesVerdict::kRemoved) {
      std::snprintf(change, sizeof(change), "-");
    } else {
      std::snprintf(change, sizeof(change), "%+.1f%%", d.rel_change * 100.0);
    }
    appendf(out, "%-40s %14.1f %14.1f %8s %6s  %s\n", d.name.c_str(),
            d.old_value, d.new_value, change, d.gated ? "yes" : "no",
            std::string(to_string(d.verdict)).c_str());
  }
  return out;
}

std::string bench_diff_verdict(const BenchDiffResult& diff) {
  std::size_t regressed = 0, improved = 0, noise = 0;
  for (const auto& d : diff.series) {
    if (d.verdict == SeriesVerdict::kRegressed) ++regressed;
    if (d.verdict == SeriesVerdict::kImproved) ++improved;
    if (d.verdict == SeriesVerdict::kWithinNoise) ++noise;
  }
  std::string out;
  const char* status = diff.regression          ? "REGRESSION"
                       : diff.gating_disabled   ? "ungated"
                                                : "ok";
  appendf(out,
          "bench-diff: %s (%zu regressed, %zu improved, %zu within-noise, "
          "%zu series)",
          status, regressed, improved, noise, diff.series.size());
  if (diff.provenance_mismatch) {
    appendf(out, " [provenance mismatch: %s]",
            diff.provenance_reason.c_str());
  }
  out += "\n";
  return out;
}

}  // namespace frame::bench
