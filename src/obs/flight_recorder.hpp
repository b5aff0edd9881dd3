// Anomaly flight recorder (DESIGN.md §13).
//
// The recorder itself is "always on" in the sense that its inputs already
// run continuously: the Tracer ring holds the recent span history and the
// MetricsRegistry / SloMonitor hold the counters.  This class only adds
// the *trigger* — on the first Lemma 1/2 miss, Li-streak breach, failover,
// critical alert, or fatal signal, it freezes those substrates into a
// self-contained post-mortem bundle on disk:
//
//   FRAME_POSTMORTEM_DIR/frame-postmortem-<pid>-<seq>/
//     manifest.txt   reason, timestamps, build provenance, chaos seed,
//                    per-shard queue depths, span-ring accounting
//     trace.dump     recent spans, frame-trace-dump v1 (stitchable)
//     metrics.json   full registry + per-topic totals (export to_json)
//     slo.json       SLO monitor document incl. evaluated alert table
//
// Bundles are written at most once per process (atomic latch): the first
// trigger wins, later ones are counted but produce no I/O, so a cascade
// (miss -> critical alert -> more misses) cannot write bundle storms.
//
// Signal-safety contract: trigger() allocates and takes locks, so the
// fatal-signal path does NOT call it.  install_fatal_handlers() instead
// pre-formats a minimal crash record at arm time and the handler only
// open/write/closes it via net/sigsafe_writer.hpp before re-raising — the
// full bundle for a crash is reconstructed by the *next* run or the test
// harness from that record.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/time.hpp"

namespace frame::obs {

enum class TriggerReason : std::uint8_t {
  kLemma2Miss = 0,       ///< first dispatch-deadline (Lemma 2) violation
  kLemma1Miss = 1,       ///< first replication-deadline (Lemma 1) violation
  kLossStreakBreach = 2, ///< a loss streak exceeded Li
  kFailover = 3,         ///< failover started (crash seen / detector fired)
  kCriticalAlert = 4,    ///< an AlertRule with Severity::kCritical fired
  kFatalSignal = 5,      ///< SIGSEGV/SIGABRT (sigsafe record, not a bundle)
  kManual = 6,           ///< explicit request (tests, operators)
};
const char* to_string(TriggerReason reason);

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Reads FRAME_POSTMORTEM_DIR and arms the recorder with it when the
  /// variable is present (empty value disarms); leaves the current
  /// directory alone when unset.  Called from EdgeSystem construction.
  void configure_from_env();
  /// Explicit arm for tests (empty dir disarms).
  void set_directory(std::string dir);
  bool armed() const;
  std::string directory() const;

  /// Wall anchor for the bundle's trace.dump:
  /// wall_now_ns() - <driving clock now>, same contract as TraceDump.
  void set_wall_anchor(std::int64_t anchor);
  /// Chaos provenance: FaultyBus reports its FaultPlan seed at
  /// construction (recorded even while obs is disabled — cheap store).
  void set_chaos_seed(std::uint64_t seed);

  /// Fires the recorder.  First call per process writes the bundle; later
  /// calls only bump the trigger counter.  `detail` is a short free-form
  /// annotation (rule name, node id, ...).  Takes locks and allocates —
  /// never call from a signal handler.  `now` stamps the manifest with the
  /// driving-clock trigger time (0 = unknown).
  void trigger(TriggerReason reason, const char* detail = "",
               TimePoint now = 0);

  /// Installs SIGSEGV/SIGABRT handlers that append an async-signal-safe
  /// crash record to FRAME_POSTMORTEM_DIR/crash-record.txt and re-raise.
  /// Idempotent; a no-op when the recorder is disarmed at call time.
  void install_fatal_handlers();

  std::uint64_t triggers_seen() const {
    return triggers_.load(std::memory_order_relaxed);
  }
  std::uint64_t bundles_written() const {
    return bundles_.load(std::memory_order_relaxed);
  }
  std::string last_bundle_path() const;

  /// Re-opens the once-per-process latch and forgets the last bundle path
  /// (tests only; the directory, seed and anchor persist).
  void reset();

 private:
  bool write_bundle(TriggerReason reason, const char* detail, TimePoint now);

  mutable std::mutex mutex_;  ///< directory / last path / bundle writing
  std::string dir_;
  std::string last_bundle_;
  std::atomic<std::int64_t> wall_anchor_{0};
  std::atomic<std::uint64_t> chaos_seed_{0};
  std::atomic<bool> has_chaos_seed_{false};
  std::atomic<bool> latched_{false};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> bundles_{0};
  std::atomic<std::uint64_t> bundle_seq_{0};
};

inline FlightRecorder& flight_recorder() { return FlightRecorder::instance(); }

}  // namespace frame::obs
