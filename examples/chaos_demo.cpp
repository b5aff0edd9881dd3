// Chaos demo: runs the full FRAME deployment under a scripted, seeded
// fault plan and narrates what the fault-injection layer throws at it and
// how the runtime absorbs each blow:
//
//   act 1 — a loss burst on a publisher->Primary link (ΔPB violated),
//           absorbed by the topic's loss budget Li;
//   act 2 — corrupted publish frames, rejected by the CRC32C frame gate
//           before they can reach an engine;
//   act 3 — the Primary is partitioned from everyone, the Backup promotes
//           within the detector's bound, and the partition then heals.
//
// The run is replayable: every probabilistic decision derives from the
// plan seed printed at startup (override with FRAME_CHAOS_SEED).
//
//   $ ./chaos_demo
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "runtime/system.hpp"

namespace {

using namespace frame;
using namespace frame::runtime;

std::uint64_t demo_seed() {
  if (const char* env = std::getenv("FRAME_CHAOS_SEED")) {
    char* end = nullptr;
    const std::uint64_t parsed = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return parsed;
  }
  return 42;
}

void print_injections(FaultyBus& faults) {
  std::printf("[faults] injected so far:");
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    const std::uint64_t n = faults.injected(kind);
    if (n > 0) {
      std::printf(" %s=%llu", to_string(kind),
                  static_cast<unsigned long long>(n));
    }
  }
  std::printf("\n");
}

void print_topic_report(EdgeSystem& system) {
  for (const auto& spec : system.topics()) {
    const SeqNo last = system.last_seq(spec.id);
    if (last < 2) continue;
    const auto& sub = system.subscriber(system.subscriber_index_of(spec.id));
    const auto loss = sub.loss_stats(spec.id, 1, last - 1);
    const auto snap = obs::slo().snapshot(spec.id, obs::slo().latest_now());
    const bool met = spec.best_effort() ||
                     loss.max_consecutive_losses <= spec.loss_tolerance;
    std::printf("topic %u: delivered=%llu losses=%llu worst-run=%llu "
                "(budget Li=%u) -> %s%s\n",
                spec.id, static_cast<unsigned long long>(snap.deliveries),
                static_cast<unsigned long long>(loss.total_losses),
                static_cast<unsigned long long>(loss.max_consecutive_losses),
                spec.loss_tolerance, met ? "MET" : "VIOLATED",
                snap.loss_budget_exceeded ? " (SLO monitor flagged!)" : "");
  }
}

}  // namespace

int main() {
  const std::uint64_t seed = demo_seed();
  std::printf("chaos_demo: seed=%llu (set FRAME_CHAOS_SEED to replay a "
              "different universe)\n\n",
              static_cast<unsigned long long>(seed));

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
  // One single-topic group per topic: each topic gets its own publisher
  // node (100, 101, 102), so faults can target one topic's link.
  proxies.push_back(ProxyGroup{
      milliseconds(100),
      {TopicSpec{0, milliseconds(100), milliseconds(150), 0, 2,
                 Destination::kEdge}}});
  proxies.push_back(ProxyGroup{
      milliseconds(100),
      {TopicSpec{1, milliseconds(100), milliseconds(150), 3, 0,
                 Destination::kEdge}}});
  proxies.push_back(ProxyGroup{
      milliseconds(100),
      {TopicSpec{2, milliseconds(100), milliseconds(200), 0, 1,
                 Destination::kEdge}}});

  FaultPlan plan;
  plan.seed = seed;
  options.fault_plan = plan;

  EdgeSystem system(options, proxies);
  const SystemNodes& nodes = system.nodes();
  FaultyBus& faults = *system.faults();

  obs::set_enabled(true);
  obs::reset_all();
  obs::slo().configure(system.topics());

  system.start();
  std::printf("[t=0.0s] deployment up: 3 publishers -> Primary (node %u) "
              "-> subscribers, Backup at node %u\n",
              nodes.primary, nodes.backup);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // --- act 1: loss burst on topic 1's publish link ------------------------
  std::printf("\n[t=0.5s] ACT 1: dropping 3 consecutive kPublish frames on "
              "the topic-1 publisher link (Li=3 budget)\n");
  FaultRule burst;
  burst.kind = FaultKind::kDrop;
  burst.from = nodes.first_publisher + 1;  // topic 1's publisher
  burst.to = nodes.primary;
  burst.type_tag = static_cast<std::uint8_t>(WireType::kPublish);
  burst.max_count = 3;
  faults.add_rule(burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  // --- act 2: corruption on the publish and replication links -------------
  std::printf("[t=1.1s] ACT 2: corrupting 3 kPublish frames on the topic-1 "
              "link and truncating 3 kReplicate frames on the "
              "Primary->Backup link (CRC32C gates must reject them)\n");
  FaultRule corrupt;
  corrupt.kind = FaultKind::kCorrupt;
  corrupt.from = nodes.first_publisher + 1;  // stays inside topic 1's budget
  corrupt.to = nodes.primary;
  corrupt.type_tag = static_cast<std::uint8_t>(WireType::kPublish);
  corrupt.max_count = 3;
  faults.add_rule(corrupt);
  FaultRule truncate;
  truncate.kind = FaultKind::kTruncate;
  truncate.from = nodes.primary;
  truncate.to = nodes.backup;
  truncate.type_tag = static_cast<std::uint8_t>(WireType::kReplicate);
  truncate.max_count = 3;
  faults.add_rule(truncate);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  std::printf("[wire ] Primary rejected %llu corrupt frames, Backup "
              "rejected %llu, none reached an engine\n",
              static_cast<unsigned long long>(system.primary().corrupt_frames()),
              static_cast<unsigned long long>(system.backup().corrupt_frames()));

  // --- act 3: partition the Primary, fail over, heal ----------------------
  std::printf("\n[t=1.7s] ACT 3: partitioning the Primary from the world "
              "(detector bound: %.0f ms)\n",
              static_cast<double>(system.detection_bound()) / 1e6);
  FaultRule partition;
  partition.kind = FaultKind::kPartition;
  partition.to = nodes.primary;
  const std::size_t partition_rule = faults.add_rule(partition);

  const MonotonicClock clock;
  const TimePoint cut_at = clock.now();
  if (!system.wait_for_failover(seconds(5))) {
    std::printf("failover did not complete in time!\n");
    return 1;
  }
  std::printf("[t=1.x ] Backup promoted and publishers redirected %.0f ms "
              "after the cut; healing the partition\n",
              static_cast<double>(clock.now() - cut_at) / 1e6);
  faults.retire_rule(partition_rule);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  system.stop();
  obs::set_enabled(false);

  std::printf("\n--- post-mortem ---\n");
  print_injections(faults);
  std::printf("new primary: node %u (was backup: %s)\n", nodes.backup,
              system.backup().is_primary() ? "yes" : "no");
  std::printf("messages created: %llu, unique delivered: %llu\n",
              static_cast<unsigned long long>(system.messages_created()),
              static_cast<unsigned long long>(system.messages_delivered()));
  print_topic_report(system);
  return 0;
}
