// Chaos x SLO monitor x flight recorder: a scripted ΔPB delay spike makes
// the broker dispatch past Lemma 2 deadlines; the burn-rate alert must
// fire (critical -> 503 /healthz), the flight recorder must freeze exactly
// one post-mortem bundle, and the bundle's stitched span timeline must
// agree with the SLO monitor's per-topic counts frozen in the same bundle.
// Runs at 1 and 4 Primary shards: the trigger path and the per-shard SLO
// fold must behave identically under the sharded hot path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos_util.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/stitch.hpp"
#include "runtime/system.hpp"

namespace frame::runtime {
namespace {

using chaos::ChaosTest;

constexpr std::uint8_t kPublishTag =
    static_cast<std::uint8_t>(WireType::kPublish);

TimingParams slo_chaos_timing() {
  TimingParams params;
  params.delta_pb = milliseconds(5);
  params.delta_bs_edge = milliseconds(1);
  params.delta_bs_cloud = milliseconds(20);
  params.delta_bb = milliseconds(1);
  params.failover_x = milliseconds(60);
  return params;
}

std::vector<ProxyGroup> slo_chaos_deployment() {
  return {
      // Topic 0 is the victim: Di = 150 ms with a loss budget so large the
      // delay-induced arrival reordering can never breach Li — the ONLY
      // flight-recorder trigger in this scenario is the Lemma 2 miss, so
      // the bundle's reason is deterministic.
      ProxyGroup{milliseconds(100),
                 {TopicSpec{0, milliseconds(100), milliseconds(150), 100, 0,
                            Destination::kEdge}}},
      // Topic 1 stays healthy as a control.
      ProxyGroup{milliseconds(100),
                 {TopicSpec{1, milliseconds(100), milliseconds(150), 3, 0,
                            Destination::kEdge}}},
  };
}

class TempBundleDir {
 public:
  TempBundleDir() {
    char tmpl[] = "/tmp/frame-chaos-slo-XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempBundleDir() {
    if (path_.empty()) return;
    const std::string cmd = "rm -rf '" + path_ + "'";
    (void)!std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Sums the "dispatch_misses" fields of the manifest's per-topic lines:
/// `topic N dispatches X dispatch_misses Y ...`.
std::uint64_t manifest_dispatch_misses(const std::string& manifest) {
  std::uint64_t total = 0;
  std::istringstream lines(manifest);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("topic ", 0) != 0) continue;
    std::istringstream fields(line);
    std::string word;
    while (fields >> word) {
      if (word == "dispatch_misses") {
        std::uint64_t misses = 0;
        if (fields >> misses) total += misses;
        break;
      }
    }
  }
  return total;
}

class ChaosSlo : public ChaosTest {
 protected:
  void TearDown() override {
    obs::flight_recorder().set_directory("");
    obs::flight_recorder().reset();
    obs::set_enabled(false);
    ChaosTest::TearDown();
  }

  void run(std::size_t shards, std::uint64_t seed_fallback) {
    TempBundleDir bundles;
    ASSERT_FALSE(bundles.path().empty());
    obs::flight_recorder().set_directory(bundles.path());
    obs::flight_recorder().reset();

    // Hold topic 0's publishes for 400 ms on the publisher->Primary link.
    // The engine's observed-ΔPB correction then stamps dispatch deadlines
    // that are already ~250 ms in the past (Di = 150 ms), so every spiked
    // message is a guaranteed Lemma 2 miss at dispatch.
    FaultRule spike;
    spike.kind = FaultKind::kDelay;
    spike.from = 100;  // topic 0's publisher
    spike.to = 1;      // Primary
    spike.type_tag = kPublishTag;
    spike.probability = 1.0;
    spike.delay = milliseconds(400);
    spike.start = milliseconds(250);
    spike.stop = milliseconds(650);

    SystemOptions options;
    options.config = ConfigName::kFrame;
    options.timing = slo_chaos_timing();
    options.fault_plan = FaultPlan{use_seed(seed_fallback), {spike}};
    options.shards = shards;
    // The spike only holds kPublish frames, so detector polls flow freely —
    // but on a loaded 1-vCPU runner the poll *threads* can starve.  A
    // spurious failover would latch the flight recorder with the wrong
    // reason and reroute the publisher away from the spiked link, so widen
    // the detector bound well past scheduler noise: 50 ms * (7+1) = 400 ms.
    options.detector_poll = milliseconds(50);
    options.detector_misses = 7;

    EdgeSystem system(options, slo_chaos_deployment());
    obs::set_enabled(true);
    obs::reset_all();
    obs::slo().configure(system.topics());

    system.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(1400));

    // The miss burst is inside the short window of the latest event time:
    // the fast-burn Lemma 2 rule must be firing, critically.
    const auto states = obs::slo().evaluate(obs::slo().latest_now());
    bool lemma2_firing = false;
    for (const auto& state : states) {
      if (state.rule.name == "lemma2-burn-fast") lemma2_firing = state.firing;
    }
    EXPECT_TRUE(lemma2_firing) << obs::slo().alerts_json(0);
    EXPECT_TRUE(obs::slo().critical_firing());

    // /alerts carries the firing rule; /healthz flips 503 with a reason.
    const std::string alerts = obs::slo().alerts_json(0);
    EXPECT_NE(alerts.find("lemma2-burn-fast"), std::string::npos);
    EXPECT_NE(alerts.find("\"firing\":true"), std::string::npos) << alerts;
    int status = 0;
    const std::string healthz = system.healthz_json(&status);
    EXPECT_EQ(status, 503) << healthz;
    EXPECT_NE(healthz.find("critical alert firing"), std::string::npos)
        << healthz;

    system.stop();

    // Exactly one bundle despite a whole burst of misses (plus the
    // critical-alert trigger from the evaluation above).
    EXPECT_GE(obs::flight_recorder().triggers_seen(), 2u);
    ASSERT_EQ(obs::flight_recorder().bundles_written(), 1u);
    const std::string bundle = obs::flight_recorder().last_bundle_path();
    ASSERT_FALSE(bundle.empty());

    const std::string manifest = slurp(bundle + "/manifest.txt");
    ASSERT_NE(manifest.find("frame-postmortem v1"), std::string::npos);
    EXPECT_NE(manifest.find("reason lemma2-miss"), std::string::npos)
        << manifest;
    EXPECT_NE(manifest.find("chaos_seed " + std::to_string(seed_)),
              std::string::npos)
        << "bundle must record the FaultPlan seed for replay";

    // The stitched timeline and the per-topic counts were frozen at the
    // same instant; they must tell the same story.  Count dispatch spans
    // that executed past their deadline (negative dd slack) and compare
    // with the manifest's per-topic fold.  A small tolerance absorbs
    // hook-ordering races between the trace ring and the SLO monitor.
    const auto dumps = obs::parse_dumps(slurp(bundle + "/trace.dump"));
    ASSERT_EQ(dumps.size(), 1u);
    const obs::StitchReport report = obs::stitch(dumps);
    std::uint64_t stitched_misses = 0;
    for (const auto& stitched : report.events) {
      const obs::SpanEvent& ev = stitched.event;
      if (ev.kind == obs::SpanKind::kDispatchStart &&
          ev.dd_slack != kDurationInfinite && ev.dd_slack < 0) {
        ++stitched_misses;
      }
    }
    const std::uint64_t accounted = manifest_dispatch_misses(manifest);
    EXPECT_GE(stitched_misses, 1u) << "bundle timeline shows no miss";
    EXPECT_LE(stitched_misses >= accounted ? stitched_misses - accounted
                                           : accounted - stitched_misses,
              3u)
        << "stitched=" << stitched_misses << " accounted=" << accounted;

    // The frozen SLO document already reports the burn.
    const std::string slo_doc = slurp(bundle + "/slo.json");
    EXPECT_NE(slo_doc.find("\"topics\""), std::string::npos);
  }
};

TEST_F(ChaosSlo, DelaySpikeFiresBurnAlertAndWritesOneBundleOneShard) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  run(/*shards=*/1, /*seed_fallback=*/9101);
}

TEST_F(ChaosSlo, DelaySpikeFiresBurnAlertAndWritesOneBundleFourShards) {
  if (!obs::kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  run(/*shards=*/4, /*seed_fallback=*/9104);
}

}  // namespace
}  // namespace frame::runtime
