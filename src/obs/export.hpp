// Snapshot collection and exporters: JSON, Prometheus text exposition, and
// a human-readable table.  Exporting is an explicitly cold path: it copies
// every instrument once (best effort, without stopping writers) and
// formats from the copies.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace frame::obs {

/// One coherent-enough view of the whole observability state.
struct ObsSnapshot {
  MetricsRegistry::Snapshot metrics;
  std::vector<TopicSloSnapshot> topics;  ///< the SLO monitor's accounts
  std::vector<SpanEvent> recent_spans;
  std::uint64_t spans_recorded = 0;
  std::uint64_t span_drops = 0;          ///< lost to slot contention
  std::uint64_t span_dropped_total = 0;  ///< contention + ring overflow
};

/// Prometheus metric-name sanitizer: every byte outside
/// [a-zA-Z0-9_:] (and a leading digit) becomes '_'.  Instrument names are
/// code-controlled today, but exporters must not emit an invalid exposition
/// if one ever isn't.
std::string prometheus_sanitize_name(std::string_view name);

/// Prometheus label-value escaping: backslash, double-quote and newline
/// get backslash-escaped (UTF-8 passes through, per the exposition spec).
std::string prometheus_escape_label(std::string_view value);

/// Minimal JSON string escaping: ", \, and control characters.
std::string json_escape(std::string_view value);

/// Copies the global registry, SLO monitor, and tracer.
/// `max_spans` bounds the spans included (0 = none, keeps snapshots small).
ObsSnapshot collect_snapshot(std::size_t max_spans = 64);

/// Machine-readable JSON object (latencies in nanoseconds).
std::string to_json(const ObsSnapshot& snap);

/// Prometheus text exposition format (counters/gauges/summaries).
std::string to_prometheus(const ObsSnapshot& snap);

/// Human-readable dashboard: per-topic latency/deadline table, failover
/// timeline, and the named instruments.
std::string to_table(const ObsSnapshot& snap);

}  // namespace frame::obs
