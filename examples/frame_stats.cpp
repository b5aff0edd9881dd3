// frame_stats: runs a scripted failover scenario with full observability
// enabled and prints the collected metrics -- per-topic p50/p99 end-to-end
// latency, dispatch/replication deadline misses, loss streaks vs Li, and
// the measured failover timeline (detection, promotion, retention replay,
// measured x).
//
//   $ ./frame_stats            # human-readable dashboard
//   $ ./frame_stats --json     # machine-readable JSON
//   $ ./frame_stats --prom     # Prometheus text exposition
//   $ ./frame_stats --spans    # also dump the most recent trace spans
//   $ ./frame_stats --serve [--trace-out F] [--perfetto-out F]
//       additionally serves live telemetry on an ephemeral loopback port
//       (printed as TELEMETRY_PORT=N before the scenario starts, so a
//       script can scrape /metrics and /healthz mid-run) and writes the
//       tracer dump / stitched Perfetto JSON on exit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/stitch.hpp"
#include "runtime/system.hpp"

namespace {

enum class Format { kTable, kJson, kProm };

const char* span_kind_name(frame::obs::SpanKind kind) {
  using frame::obs::SpanKind;
  switch (kind) {
    case SpanKind::kPublish: return "publish";
    case SpanKind::kProxyAdmit: return "proxy-admit";
    case SpanKind::kJobEnqueue: return "job-enqueue";
    case SpanKind::kDispatchStart: return "dispatch";
    case SpanKind::kDelivered: return "delivered";
    case SpanKind::kReplicated: return "replicated";
    case SpanKind::kDropped: return "dropped";
    case SpanKind::kCrash: return "crash";
    case SpanKind::kFailoverDetected: return "failover-detected";
    case SpanKind::kPromotion: return "promotion";
    case SpanKind::kRetentionReplay: return "retention-replay";
    case SpanKind::kBackupStored: return "backup-stored";
    case SpanKind::kRedirect: return "redirect";
    case SpanKind::kDispatchDone: return "dispatch-done";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace frame;
  using namespace frame::runtime;

  Format format = Format::kTable;
  bool dump_spans = false;
  bool serve = false;
  const char* trace_out = nullptr;
  const char* perfetto_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) format = Format::kJson;
    else if (std::strcmp(argv[i], "--prom") == 0) format = Format::kProm;
    else if (std::strcmp(argv[i], "--spans") == 0) dump_spans = true;
    else if (std::strcmp(argv[i], "--serve") == 0) serve = true;
    else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
      trace_out = argv[++i];
    else if (std::strcmp(argv[i], "--perfetto-out") == 0 && i + 1 < argc)
      perfetto_out = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: %s [--json|--prom] [--spans] [--serve] "
                   "[--trace-out F] [--perfetto-out F]\n",
                   argv[0]);
      return 2;
    }
  }

  // Observability must be on before the system constructs its engines so
  // the SLO monitor learns the topic table.
  obs::set_enabled(true);

  SystemOptions options;
  options.config = ConfigName::kFrame;
  options.timing.delta_pb = milliseconds(5);
  options.timing.delta_bs_edge = milliseconds(1);
  options.timing.delta_bs_cloud = milliseconds(20);
  options.timing.delta_bb = milliseconds(1);
  options.timing.failover_x = milliseconds(60);
  options.detector_poll = milliseconds(10);
  options.detector_misses = 3;

  std::vector<ProxyGroup> proxies;
  proxies.push_back(ProxyGroup{
      milliseconds(100),
      {
          // Zero loss, retention-covered (category-0 style).
          TopicSpec{0, milliseconds(100), milliseconds(150), 0, 2,
                    Destination::kEdge},
          // Up to 3 consecutive losses tolerated, no retention (cat 1).
          TopicSpec{1, milliseconds(100), milliseconds(150), 3, 0,
                    Destination::kEdge},
          // Zero loss via replication (category-2 style).
          TopicSpec{2, milliseconds(100), milliseconds(200), 0, 1,
                    Destination::kEdge},
          // Cloud-bound, loose deadline, replicated.
          TopicSpec{3, milliseconds(100), milliseconds(400), 0, 1,
                    Destination::kCloud},
      }});

  if (serve) options.telemetry_port = 0;  // ephemeral
  EdgeSystem system(options, proxies);
  if (serve) {
    if (system.telemetry_port() == 0) {
      std::fprintf(stderr, "telemetry endpoint failed to bind\n");
      return 1;
    }
    // Scripts scrape while the scenario runs: announce the port first and
    // make sure it leaves the stdout buffer before the sleeps below.
    std::printf("TELEMETRY_PORT=%u\n", system.telemetry_port());
    std::printf(
        "ENDPOINTS=/metrics /snapshot.json /healthz /trace /alerts "
        "/slo.json\n");
    std::fflush(stdout);
  }
  system.start();
  if (format == Format::kTable) {
    std::fprintf(stderr, "[frame_stats] running healthy for 1s...\n");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  if (format == Format::kTable) {
    std::fprintf(stderr, "[frame_stats] crashing the Primary broker...\n");
  }
  system.crash_primary();
  if (!system.wait_for_failover(seconds(5))) {
    std::fprintf(stderr, "failover did not complete in time!\n");
    return 1;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  // Snapshot the ring before stop() tears the system down, then write the
  // dump / stitched Perfetto trace the --stitch workflow consumes.
  if (trace_out != nullptr || perfetto_out != nullptr) {
    const obs::TraceDump dump = system.trace_dump("frame-stats");
    if (trace_out != nullptr) {
      std::ofstream out(trace_out);
      out << obs::serialize_dump(dump);
      std::fprintf(stderr, "[frame_stats] wrote %s\n", trace_out);
    }
    if (perfetto_out != nullptr) {
      const obs::StitchReport report = obs::stitch({dump});
      const std::string json = obs::to_perfetto_json(report);
      const Status valid = obs::validate_perfetto_json(json);
      if (!valid.is_ok()) {
        std::fprintf(stderr, "generated Perfetto JSON is invalid: %s\n",
                     valid.to_string().c_str());
        return 1;
      }
      std::ofstream out(perfetto_out);
      out << json;
      std::fprintf(stderr, "[frame_stats] wrote %s\n", perfetto_out);
    }
  }
  system.stop();

  const obs::ObsSnapshot snap = obs::collect_snapshot(dump_spans ? 64 : 0);
  switch (format) {
    case Format::kTable:
      std::fputs(obs::to_table(snap).c_str(), stdout);
      break;
    case Format::kJson:
      std::fputs(obs::to_json(snap).c_str(), stdout);
      std::fputc('\n', stdout);
      break;
    case Format::kProm:
      std::fputs(obs::to_prometheus(snap).c_str(), stdout);
      break;
  }

  if (dump_spans && format == Format::kTable) {
    std::printf("\n-- recent spans (%zu of %llu recorded, %llu dropped) --\n",
                snap.recent_spans.size(),
                static_cast<unsigned long long>(snap.spans_recorded),
                static_cast<unsigned long long>(snap.span_drops));
    for (const auto& span : snap.recent_spans) {
      char node[16] = "-";
      if (span.node != kInvalidNode) {
        std::snprintf(node, sizeof(node), "%u", span.node);
      }
      std::printf("  t=%.6fs %-17s topic=%u seq=%llu node=%s\n",
                  static_cast<double>(span.at) / 1e9,
                  span_kind_name(span.kind), span.topic,
                  static_cast<unsigned long long>(span.seq), node);
    }
  }
  return 0;
}
