#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "common/time.hpp"
#include "core/topic.hpp"
#include "obs/obs.hpp"

namespace frame::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

void append_latency_json(std::string& out, const LatencyRecorder::Snapshot& l) {
  appendf(out,
          "{\"count\":%zu,\"mean_ns\":%.1f,\"min_ns\":%.1f,\"max_ns\":%.1f,"
          "\"p50_ns\":%.1f,\"p90_ns\":%.1f,\"p99_ns\":%.1f}",
          l.count(), l.mean(), l.min(), l.max(), l.p50(), l.p90(), l.p99());
}

/// ms with enough digits for sub-ms values.
double ms(double ns) { return ns / 1e6; }

/// Per-stage attribution series get their full log-binned histogram
/// exported (not just summary quantiles) so queue-delay vs service-time
/// shape is visible in /metrics and /snapshot.json.  Suffix-matched to
/// keep the common summary series compact.
bool stage_series(std::string_view name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  return ends_with("_queue_delay_ns") || ends_with("_service_ns");
}

/// Upper edge of log-domain bin `i` in nanoseconds.
double bin_high_ns(const Histogram& h, std::size_t i) {
  const double hi_log = i + 1 < h.bin_count()
                            ? h.bin_low(i + 1)
                            : LatencyRecorder::kLogHi;
  return std::pow(10.0, hi_log);
}

/// True when `name` is a per-shard series ("<base>_shard<k>"); stores the
/// base name.  The sharded broker's hot-path hooks record into these
/// (obs/hooks.cpp PerShard).
bool split_shard_series(std::string_view name, std::string_view& base) {
  const auto pos = name.rfind("_shard");
  if (pos == std::string_view::npos || pos == 0) return false;
  const auto digits = name.substr(pos + 6);
  if (digits.empty() || digits.size() > 4) return false;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  base = name.substr(0, pos);
  return true;
}

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

/// Folds every per-shard series into an aggregate under its base name, in
/// place: counters sum, gauges sum (except "*_peak", which takes the max),
/// latencies merge their moments and log-binned histograms.  The shard
/// series stay in the snapshot for per-shard visibility; consumers of the
/// pre-sharding names (/metrics dashboards, the stage-attribution tests,
/// the bench harness) read the aggregate and never notice the shards.
void fold_shard_series(MetricsRegistry::Snapshot& m) {
  const auto find_or_append = [](auto& entries, std::string_view base) {
    for (auto& entry : entries) {
      if (entry.first == base) return &entry;
    }
    entries.emplace_back(std::string(base),
                         typename std::decay_t<decltype(entries)>::
                             value_type::second_type{});
    return &entries.back();
  };

  // Copy name and value out before find_or_append: appending the base
  // entry can reallocate the vector, which would dangle both a view into
  // an SSO name and a reference to the shard entry's value.
  std::string_view base_view;
  bool folded = false;
  for (std::size_t i = 0; i < m.counters.size(); ++i) {
    if (!split_shard_series(m.counters[i].first, base_view)) continue;
    const std::string base(base_view);
    const std::uint64_t value = m.counters[i].second;
    find_or_append(m.counters, base)->second += value;
    folded = true;
  }
  for (std::size_t i = 0; i < m.gauges.size(); ++i) {
    if (!split_shard_series(m.gauges[i].first, base_view)) continue;
    const std::string base(base_view);
    const std::int64_t value = m.gauges[i].second;
    auto* entry = find_or_append(m.gauges, base);
    if (ends_with(base, "_peak")) {
      entry->second = std::max(entry->second, value);
    } else {
      entry->second += value;
    }
    folded = true;
  }
  for (std::size_t i = 0; i < m.latencies.size(); ++i) {
    if (!split_shard_series(m.latencies[i].first, base_view)) continue;
    const std::string base(base_view);
    const LatencyRecorder::Snapshot shard_snap = m.latencies[i].second;
    auto* entry = find_or_append(m.latencies, base);
    entry->second.stats.merge(shard_snap.stats);
    entry->second.hist.merge(shard_snap.hist);
    folded = true;
  }
  if (!folded) return;
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(m.counters.begin(), m.counters.end(), by_name);
  std::sort(m.gauges.begin(), m.gauges.end(), by_name);
  std::sort(m.latencies.begin(), m.latencies.end(), by_name);
}

}  // namespace

std::string prometheus_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    out.push_back(alpha || (digit && i > 0) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string json_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(out, "\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

ObsSnapshot collect_snapshot(std::size_t max_spans) {
  ObsSnapshot snap;
  snap.metrics = registry().snapshot();
  fold_shard_series(snap.metrics);
  snap.topics = slo().snapshot_all(slo().latest_now());
  snap.spans_recorded = tracer().recorded();
  snap.span_drops = tracer().contention_drops();
  snap.span_dropped_total = tracer().dropped_total();
  if (max_spans > 0) {
    snap.recent_spans = tracer().snapshot();
    if (snap.recent_spans.size() > max_spans) {
      snap.recent_spans.erase(
          snap.recent_spans.begin(),
          snap.recent_spans.end() - static_cast<std::ptrdiff_t>(max_spans));
    }
  }
  return snap;
}

std::string to_json(const ObsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.metrics.counters) {
    appendf(out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",",
            json_escape(name).c_str(), value);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.metrics.gauges) {
    appendf(out, "%s\n    \"%s\": %" PRId64, first ? "" : ",",
            json_escape(name).c_str(), value);
    first = false;
  }
  out += "\n  },\n  \"latencies\": {";
  first = true;
  for (const auto& [name, latency] : snap.metrics.latencies) {
    appendf(out, "%s\n    \"%s\": ", first ? "" : ",",
            json_escape(name).c_str());
    if (stage_series(name)) {
      // Same scalar fields as append_latency_json plus the non-empty
      // log-binned buckets: [upper-edge ns, count] pairs.
      appendf(out,
              "{\"count\":%zu,\"mean_ns\":%.1f,\"min_ns\":%.1f,"
              "\"max_ns\":%.1f,\"p50_ns\":%.1f,\"p90_ns\":%.1f,"
              "\"p99_ns\":%.1f,\"hist\":[",
              latency.count(), latency.mean(), latency.min(), latency.max(),
              latency.p50(), latency.p90(), latency.p99());
      bool first_bin = true;
      for (std::size_t i = 0; i < latency.hist.bin_count(); ++i) {
        if (latency.hist.bin(i) == 0) continue;
        appendf(out, "%s[%.1f,%" PRIu64 "]", first_bin ? "" : ",",
                bin_high_ns(latency.hist, i), latency.hist.bin(i));
        first_bin = false;
      }
      out += "]}";
    } else {
      append_latency_json(out, latency);
    }
    first = false;
  }
  out += "\n  },\n  \"topics\": [";
  first = true;
  for (const auto& t : snap.topics) {
    if (t.topic == kInvalidTopic) continue;
    appendf(out,
            "%s\n    {\"topic\":%u,\"li\":%s,\"di_ms\":%.3f,"
            "\"dispatches\":%" PRIu64 ",\"dispatch_misses\":%" PRIu64
            ",\"replications\":%" PRIu64 ",\"replication_misses\":%" PRIu64
            ",\"deliveries\":%" PRIu64 ",\"e2e_misses\":%" PRIu64
            ",\"losses_total\":%" PRIu64 ",\"max_loss_streak\":%" PRIu64
            ",\"loss_budget_exceeded\":%s,\"e2e\":",
            first ? "" : ",", t.topic,
            t.loss_tolerance == kLossInfinite
                ? "\"inf\""
                : std::to_string(t.loss_tolerance).c_str(),
            to_millis(t.deadline), t.dispatches, t.dispatch_misses,
            t.replications, t.replication_misses, t.deliveries, t.e2e_misses,
            t.losses_total, t.max_loss_streak,
            t.loss_budget_exceeded ? "true" : "false");
    append_latency_json(out, t.e2e_latency);
    out += "}";
    first = false;
  }
  appendf(out,
          "\n  ],\n  \"tracer\": {\"recorded\": %" PRIu64
          ", \"contention_drops\": %" PRIu64 ", \"dropped_total\": %" PRIu64
          "}\n}\n",
          snap.spans_recorded, snap.span_drops, snap.span_dropped_total);
  return out;
}

std::string to_prometheus(const ObsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.metrics.counters) {
    const std::string n = prometheus_sanitize_name(name);
    appendf(out, "# TYPE %s counter\n%s %" PRIu64 "\n", n.c_str(), n.c_str(),
            value);
  }
  for (const auto& [name, value] : snap.metrics.gauges) {
    const std::string n = prometheus_sanitize_name(name);
    appendf(out, "# TYPE %s gauge\n%s %" PRId64 "\n", n.c_str(), n.c_str(),
            value);
  }
  for (const auto& [name, latency] : snap.metrics.latencies) {
    const std::string n = prometheus_sanitize_name(name);
    appendf(out, "# TYPE %s summary\n", n.c_str());
    appendf(out, "%s{quantile=\"0.5\"} %.1f\n", n.c_str(), latency.p50());
    appendf(out, "%s{quantile=\"0.9\"} %.1f\n", n.c_str(), latency.p90());
    appendf(out, "%s{quantile=\"0.99\"} %.1f\n", n.c_str(), latency.p99());
    appendf(out, "%s_sum %.1f\n", n.c_str(),
            latency.mean() * static_cast<double>(latency.count()));
    appendf(out, "%s_count %zu\n", n.c_str(), latency.count());
    if (stage_series(name)) {
      // Full log-binned shape as a Prometheus histogram (cumulative `le`
      // buckets over the non-empty bins; +Inf closes the series).
      appendf(out, "# TYPE %s_hist histogram\n", n.c_str());
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < latency.hist.bin_count(); ++i) {
        if (latency.hist.bin(i) == 0) continue;
        cumulative += latency.hist.bin(i);
        appendf(out, "%s_hist_bucket{le=\"%.1f\"} %" PRIu64 "\n", n.c_str(),
                bin_high_ns(latency.hist, i), cumulative);
      }
      appendf(out, "%s_hist_bucket{le=\"+Inf\"} %" PRIu64 "\n", n.c_str(),
              latency.hist.total());
      appendf(out, "%s_hist_sum %.1f\n", n.c_str(),
              latency.mean() * static_cast<double>(latency.count()));
      appendf(out, "%s_hist_count %zu\n", n.c_str(), latency.count());
    }
  }
  // Tracer loss accounting: nonzero means snapshots/dumps are incomplete
  // timelines (ring wraparound or slot contention) -- consumers must not
  // treat a stitched trace as exhaustive when this counter moved.
  appendf(out,
          "# TYPE frame_trace_recorded_total counter\n"
          "frame_trace_recorded_total %" PRIu64 "\n",
          snap.spans_recorded);
  appendf(out,
          "# TYPE frame_trace_dropped_total counter\n"
          "frame_trace_dropped_total %" PRIu64 "\n",
          snap.span_dropped_total);
  // Per-topic series from the SLO monitor's all-time account.
  for (const auto& t : snap.topics) {
    if (t.topic == kInvalidTopic || t.deliveries + t.dispatches == 0) continue;
    appendf(out, "frame_topic_dispatch_misses_total{topic=\"%u\"} %" PRIu64 "\n",
            t.topic, t.dispatch_misses);
    appendf(out,
            "frame_topic_replication_misses_total{topic=\"%u\"} %" PRIu64 "\n",
            t.topic, t.replication_misses);
    appendf(out, "frame_topic_e2e_misses_total{topic=\"%u\"} %" PRIu64 "\n",
            t.topic, t.e2e_misses);
    appendf(out, "frame_topic_max_loss_streak{topic=\"%u\"} %" PRIu64 "\n",
            t.topic, t.max_loss_streak);
    appendf(out, "frame_topic_e2e_latency_ns{topic=\"%u\",quantile=\"0.5\"} %.1f\n",
            t.topic, t.e2e_latency.p50());
    appendf(out, "frame_topic_e2e_latency_ns{topic=\"%u\",quantile=\"0.99\"} %.1f\n",
            t.topic, t.e2e_latency.p99());
  }
  return out;
}

std::string to_table(const ObsSnapshot& snap) {
  std::string out;
  out.reserve(4096);

  out += "== per-topic deadline & latency accounting ==\n";
  appendf(out, "%-6s %-6s %-9s %9s %9s %9s %9s %9s %9s %7s %6s\n", "topic",
          "Li", "Di(ms)", "deliv", "p50(ms)", "p99(ms)", "e2e-miss", "dd-miss",
          "dr-miss", "streak", "ok?");
  for (const auto& t : snap.topics) {
    if (t.topic == kInvalidTopic ||
        t.deliveries + t.dispatches + t.replications == 0) {
      continue;
    }
    char li[16];
    if (t.loss_tolerance == kLossInfinite) {
      std::snprintf(li, sizeof(li), "inf");
    } else {
      std::snprintf(li, sizeof(li), "%u", t.loss_tolerance);
    }
    appendf(out,
            "%-6u %-6s %-9.1f %9" PRIu64 " %9.3f %9.3f %9" PRIu64 " %9" PRIu64
            " %9" PRIu64 " %7" PRIu64 " %6s\n",
            t.topic, li, to_millis(t.deadline), t.deliveries,
            ms(t.e2e_latency.p50()), ms(t.e2e_latency.p99()), t.e2e_misses,
            t.dispatch_misses, t.replication_misses, t.max_loss_streak,
            t.loss_budget_exceeded ? "MISS" : "ok");
  }

  // Failover timeline from the gauges, when a crash was recorded.
  std::int64_t crash_at = 0, detected_at = 0, promoted_at = 0, redirect_at = 0;
  for (const auto& [name, value] : snap.metrics.gauges) {
    if (name == "frame_failover_crash_at_ns") crash_at = value;
    if (name == "frame_failover_detected_at_ns") detected_at = value;
    if (name == "frame_failover_promotion_at_ns") promoted_at = value;
    if (name == "frame_failover_redirect_at_ns") redirect_at = value;
  }
  if (crash_at > 0) {
    out += "\n== failover timeline ==\n";
    appendf(out, "crash injected        t=%.3f ms\n", ms(double(crash_at)));
    if (detected_at > crash_at) {
      appendf(out, "failure detected      t=%.3f ms  (+%.3f ms)\n",
              ms(double(detected_at)), ms(double(detected_at - crash_at)));
    }
    if (promoted_at > crash_at) {
      appendf(out, "backup promoted       t=%.3f ms  (+%.3f ms)\n",
              ms(double(promoted_at)), ms(double(promoted_at - crash_at)));
    }
    if (redirect_at > crash_at) {
      appendf(out,
              "publishers redirected t=%.3f ms  (+%.3f ms)  <- measured x\n",
              ms(double(redirect_at)), ms(double(redirect_at - crash_at)));
    }
  }

  out += "\n== counters ==\n";
  for (const auto& [name, value] : snap.metrics.counters) {
    appendf(out, "%-40s %12" PRIu64 "\n", name.c_str(), value);
  }
  out += "\n== gauges ==\n";
  for (const auto& [name, value] : snap.metrics.gauges) {
    appendf(out, "%-40s %12" PRId64 "\n", name.c_str(), value);
  }
  out += "\n== latency distributions (ms) ==\n";
  appendf(out, "%-32s %9s %9s %9s %9s %9s %9s\n", "name", "count", "mean",
          "p50", "p90", "p99", "max");
  for (const auto& [name, l] : snap.metrics.latencies) {
    if (l.count() == 0) continue;
    appendf(out, "%-32s %9zu %9.3f %9.3f %9.3f %9.3f %9.3f\n", name.c_str(),
            l.count(), ms(l.mean()), ms(l.p50()), ms(l.p90()), ms(l.p99()),
            ms(l.max()));
  }
  appendf(out,
          "\nspans recorded %" PRIu64 " (dropped %" PRIu64
          ": contention %" PRIu64 " + overflow; ring capacity %zu)\n",
          snap.spans_recorded, snap.span_dropped_total, snap.span_drops,
          tracer().capacity());
  return out;
}

}  // namespace frame::obs
