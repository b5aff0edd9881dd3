#include "obs/flight_recorder.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/build_info.hpp"
#include "net/sigsafe_writer.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/stitch.hpp"

namespace frame::obs {

const char* to_string(TriggerReason reason) {
  switch (reason) {
    case TriggerReason::kLemma2Miss:
      return "lemma2-miss";
    case TriggerReason::kLemma1Miss:
      return "lemma1-miss";
    case TriggerReason::kLossStreakBreach:
      return "loss-streak-breach";
    case TriggerReason::kFailover:
      return "failover";
    case TriggerReason::kCriticalAlert:
      return "critical-alert";
    case TriggerReason::kFatalSignal:
      return "fatal-signal";
    case TriggerReason::kManual:
      return "manual";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::configure_from_env() {
  // Only the *presence* of the variable has authority: an unset env must
  // not disarm a recorder a test or embedder armed via set_directory().
  const char* dir = std::getenv("FRAME_POSTMORTEM_DIR");
  if (dir != nullptr) set_directory(dir);
}

void FlightRecorder::set_directory(std::string dir) {
  std::lock_guard<std::mutex> guard(mutex_);
  dir_ = std::move(dir);
}

bool FlightRecorder::armed() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return !dir_.empty();
}

std::string FlightRecorder::directory() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return dir_;
}

void FlightRecorder::set_wall_anchor(std::int64_t anchor) {
  wall_anchor_.store(anchor, std::memory_order_relaxed);
}

void FlightRecorder::set_chaos_seed(std::uint64_t seed) {
  chaos_seed_.store(seed, std::memory_order_relaxed);
  has_chaos_seed_.store(true, std::memory_order_relaxed);
}

std::string FlightRecorder::last_bundle_path() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return last_bundle_;
}

void FlightRecorder::reset() {
  latched_.store(false, std::memory_order_relaxed);
  triggers_.store(0, std::memory_order_relaxed);
  bundles_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> guard(mutex_);
  last_bundle_.clear();
}

#ifndef FRAME_OBS_DISABLED

void FlightRecorder::trigger(TriggerReason reason, const char* detail,
                             TimePoint now) {
  triggers_.fetch_add(1, std::memory_order_relaxed);
  // Latch check first, lock-free: write_bundle holds mutex_ while it
  // snapshots the SLO monitor, whose evaluation can re-trigger us — that
  // re-entrant call must bail before armed() touches the mutex.
  if (latched_.load(std::memory_order_acquire)) return;
  if (!armed()) return;
  // Once-per-process latch: the first trigger freezes the conditions at
  // the *first* anomaly; a cascade of follow-on triggers must not
  // overwrite it or storm the disk.
  if (latched_.exchange(true, std::memory_order_acq_rel)) return;
  if (write_bundle(reason, detail, now)) {
    bundles_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool FlightRecorder::write_bundle(TriggerReason reason, const char* detail,
                                  TimePoint now) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (dir_.empty()) return false;
  ::mkdir(dir_.c_str(), 0755);  // best effort; may already exist

  const std::uint64_t seq =
      bundle_seq_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream path;
  path << dir_ << "/frame-postmortem-" << ::getpid() << '-' << seq;
  if (::mkdir(path.str().c_str(), 0755) != 0) return false;
  const std::string bundle = path.str();

  // Collect everything *before* writing, so a slow disk cannot widen the
  // race against live traffic more than necessary.
  const std::int64_t anchor = wall_anchor_.load(std::memory_order_relaxed);
  const TraceDump dump = collect_local_dump("flight-recorder", anchor);
  const ObsSnapshot snap = collect_snapshot(/*max_spans=*/0);
  const TimePoint slo_now = now != 0 ? now : slo().latest_now();
  const std::string slo_doc = slo().slo_json(slo_now);
  const BuildInfo build = library_build_info();

  {
    std::ofstream manifest(bundle + "/manifest.txt");
    if (!manifest) return false;
    manifest << "frame-postmortem v1\n"
             << "reason " << to_string(reason) << '\n'
             << "detail " << (detail != nullptr ? detail : "") << '\n'
             << "pid " << ::getpid() << '\n'
             << "trigger_now_ns " << now << '\n'
             << "wall_ns " << wall_now_ns() << '\n'
             << "wall_anchor_ns " << anchor << '\n'
             << "build_type " << build.build_type << '\n'
             << "optimized " << (build.optimized ? 1 : 0) << '\n'
             << "sanitizer " << build.sanitizer << '\n';
    if (has_chaos_seed_.load(std::memory_order_relaxed)) {
      manifest << "chaos_seed "
               << chaos_seed_.load(std::memory_order_relaxed) << '\n';
    }
    manifest << "spans_recorded " << dump.recorded << '\n'
             << "spans_dropped " << dump.dropped << '\n'
             << "spans_in_dump " << dump.spans.size() << '\n';
    // Per-shard queue depths and per-topic totals: the quick-look numbers
    // an operator reads before opening the JSON.
    for (const auto& [name, value] : snap.metrics.gauges) {
      if (name.rfind("frame_job_queue_depth", 0) == 0) {
        manifest << "gauge " << name << ' ' << value << '\n';
      }
    }
    for (const auto& topic : snap.topics) {
      manifest << "topic " << topic.topic << " dispatches "
               << topic.dispatches << " dispatch_misses "
               << topic.dispatch_misses << " replications "
               << topic.replications << " replication_misses "
               << topic.replication_misses << " deliveries "
               << topic.deliveries << " max_loss_streak "
               << topic.max_loss_streak << '\n';
    }
  }
  {
    std::ofstream trace(bundle + "/trace.dump");
    if (!trace) return false;
    trace << serialize_dump(dump);
  }
  {
    std::ofstream metrics(bundle + "/metrics.json");
    if (!metrics) return false;
    metrics << to_json(snap);
  }
  {
    std::ofstream slo_file(bundle + "/slo.json");
    if (!slo_file) return false;
    slo_file << slo_doc;
  }
  last_bundle_ = bundle;
  return true;
}

namespace {

// Pre-formatted crash record, filled at arm time so the handler only has
// to stamp the signal number and write.  Fixed buffers: the handler may
// not allocate.
constexpr std::size_t kCrashPathCap = 512;
constexpr std::size_t kCrashBodyCap = 1024;
char g_crash_path[kCrashPathCap];
char g_crash_body[kCrashBodyCap];
std::size_t g_crash_body_len = 0;
std::size_t g_crash_signo_at = 0;  ///< offset of the 3-digit signo field

void fatal_signal_handler(int signo) {
  // Async-signal-safe only: patch the signo digits in the pre-formatted
  // record, append it, re-raise with default disposition.
  if (g_crash_path[0] != '\0' && g_crash_body_len > 0 &&
      g_crash_signo_at + 3 <= g_crash_body_len) {
    g_crash_body[g_crash_signo_at] =
        static_cast<char>('0' + (signo / 100) % 10);
    g_crash_body[g_crash_signo_at + 1] =
        static_cast<char>('0' + (signo / 10) % 10);
    g_crash_body[g_crash_signo_at + 2] = static_cast<char>('0' + signo % 10);
    const int fd = sigsafe::open_append(g_crash_path);
    if (fd >= 0) {
      sigsafe::write_full(fd, g_crash_body, g_crash_body_len);
      ::fsync(fd);
      ::close(fd);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void FlightRecorder::install_fatal_handlers() {
  const std::string dir = directory();
  if (dir.empty()) return;

  std::size_t pos = 0;
  pos = sigsafe::append_str(g_crash_path, kCrashPathCap - 1, pos, dir.c_str());
  pos = sigsafe::append_str(g_crash_path, kCrashPathCap - 1, pos,
                            "/crash-record.txt");
  g_crash_path[pos] = '\0';
  ::mkdir(dir.c_str(), 0755);

  const BuildInfo build = library_build_info();
  pos = 0;
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos,
                            "frame-crash-record v1\nsigno ");
  g_crash_signo_at = pos;
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos, "000\npid ");
  pos = sigsafe::append_i64(g_crash_body, kCrashBodyCap, pos, ::getpid());
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos,
                            "\narm_wall_ns ");
  pos = sigsafe::append_i64(g_crash_body, kCrashBodyCap, pos, wall_now_ns());
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos, "\nbuild_type ");
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos,
                            build.build_type);
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos, "\nsanitizer ");
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos, build.sanitizer);
  if (has_chaos_seed_.load(std::memory_order_relaxed)) {
    pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos,
                              "\nchaos_seed ");
    pos = sigsafe::append_u64(g_crash_body, kCrashBodyCap, pos,
                              chaos_seed_.load(std::memory_order_relaxed));
  }
  pos = sigsafe::append_str(g_crash_body, kCrashBodyCap, pos, "\n");
  g_crash_body_len = pos;

  ::signal(SIGSEGV, fatal_signal_handler);
  ::signal(SIGABRT, fatal_signal_handler);
}

#else  // FRAME_OBS_DISABLED

void FlightRecorder::trigger(TriggerReason, const char*, TimePoint) {}
bool FlightRecorder::write_bundle(TriggerReason, const char*, TimePoint) {
  return false;
}
void FlightRecorder::install_fatal_handlers() {}

#endif  // FRAME_OBS_DISABLED

}  // namespace frame::obs
