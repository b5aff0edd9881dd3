// SLO monitor + flight recorder tests: windowed burn-rate accounting,
// declarative alert evaluation, the /alerts and 503 /healthz endpoints,
// and the once-per-process post-mortem bundle.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/http_exporter.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/stitch.hpp"

namespace frame::obs {
namespace {

std::vector<TopicSpec> two_topics() {
  return {
      // Hard topic: Li = 2, Di = 150ms.
      TopicSpec{0, milliseconds(100), milliseconds(150), 2, 0,
                Destination::kEdge},
      // Best-effort topic: infinite loss tolerance.
      TopicSpec{1, milliseconds(100), milliseconds(150), kLossInfinite, 0,
                Destination::kEdge},
  };
}

class SloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_all();
    slo().configure(two_topics());
  }
  void TearDown() override { reset_all(); }
};

TEST_F(SloTest, BurnRateIsMissFractionOverBudget) {
  // 100 dispatches, 10 misses (laxity < 0), budget 0.001 -> burn 100.
  const TimePoint t0 = seconds(10);
  for (int i = 0; i < 100; ++i) {
    const Duration laxity = i < 10 ? -milliseconds(1) : milliseconds(20);
    slo().on_dispatch_executed(0, laxity, t0 + i * microseconds(100));
  }
  const TopicSloSnapshot snap = slo().snapshot(0, slo().latest_now());
  EXPECT_EQ(snap.dispatches_short, 100u);
  EXPECT_EQ(snap.dispatch_misses_short, 10u);
  EXPECT_NEAR(snap.dispatch_burn_short, 0.1 / 0.001, 1e-9);
  EXPECT_EQ(snap.dispatch_headroom_min, -milliseconds(1));
  EXPECT_EQ(snap.dispatch_headroom.count(), 100u);
}

TEST_F(SloTest, ShortWindowForgetsOldMisses) {
  const TimePoint t0 = seconds(10);
  for (int i = 0; i < 8; ++i) {
    slo().on_dispatch_executed(0, -milliseconds(1), t0 + i);
  }
  // Two short windows later the misses have rolled out of the short view
  // but remain visible in the long window.
  const TimePoint later = t0 + 3 * SloMonitor::kShortWindow;
  slo().on_dispatch_executed(0, milliseconds(20), later);
  const TopicSloSnapshot snap = slo().snapshot(0, later);
  EXPECT_EQ(snap.dispatch_misses_short, 0u) << "short window did not roll";
  EXPECT_EQ(snap.dispatches_short, 1u);
  EXPECT_EQ(snap.dispatch_misses_long, 8u);
  EXPECT_GT(snap.dispatch_burn_long, 0.0);
  EXPECT_EQ(snap.dispatch_burn_short, 0.0);
}

TEST_F(SloTest, DefaultRulesFireCriticalOnSustainedLemma2Misses) {
  const TimePoint t0 = seconds(5);
  // 50% miss rate >> 14.4 * budget: the fast-burn critical rule fires.
  for (int i = 0; i < 40; ++i) {
    const Duration laxity = (i % 2) != 0 ? -milliseconds(2) : milliseconds(5);
    slo().on_dispatch_executed(0, laxity, t0 + i * microseconds(100));
  }
  const auto states = slo().evaluate(slo().latest_now());
  ASSERT_FALSE(states.empty());
  bool fast_burn_firing = false;
  for (const auto& state : states) {
    if (state.rule.name == "lemma2-burn-fast") {
      fast_burn_firing = state.firing;
      EXPECT_EQ(state.rule.severity, Severity::kCritical);
      EXPECT_GT(state.value, 14.4);
      EXPECT_GT(state.since, 0);
    }
  }
  EXPECT_TRUE(fast_burn_firing);
  EXPECT_TRUE(slo().critical_firing());

  // A quiet recovery clears it: 2000 clean dispatches in a later window.
  const TimePoint t1 = t0 + 4 * SloMonitor::kShortWindow;
  for (int i = 0; i < 2000; ++i) {
    slo().on_dispatch_executed(0, milliseconds(30), t1 + i * microseconds(10));
  }
  slo().evaluate(slo().latest_now());
  EXPECT_FALSE(slo().critical_firing());
}

TEST_F(SloTest, StreakProximityTracksWorstStreakAgainstLi) {
  const TimePoint t0 = seconds(3);
  // Seq 2 lost: a streak of 1.
  slo().on_delivery(0, 1, milliseconds(10), t0);
  slo().on_delivery(0, 3, milliseconds(10), t0);
  TopicSloSnapshot snap = slo().snapshot(0, t0);
  EXPECT_NEAR(snap.streak_proximity, 0.5, 1e-9);  // 1 of Li=2

  // Seqs 4-6 lost: a streak of 3.
  slo().on_delivery(0, 7, milliseconds(10), t0 + 1);
  snap = slo().snapshot(0, t0 + 1);
  EXPECT_EQ(snap.max_loss_streak, 3u);
  EXPECT_NEAR(snap.streak_proximity, 1.5, 1e-9);  // breach

  const auto states = slo().evaluate(t0 + 1);
  bool breach_firing = false;
  for (const auto& state : states) {
    if (state.rule.name == "li-streak-breach") breach_firing = state.firing;
  }
  EXPECT_TRUE(breach_firing);

  // Best-effort topics never contribute streak proximity.
  slo().on_delivery(1, 1, milliseconds(10), t0 + 2);
  slo().on_delivery(1, 101, milliseconds(10), t0 + 2);
  snap = slo().snapshot(1, t0 + 2);
  EXPECT_EQ(snap.max_loss_streak, 99u);
  EXPECT_EQ(snap.streak_proximity, 0.0);
}

TEST_F(SloTest, PerShardFoldAttributesByThreadShard) {
  const TimePoint t0 = seconds(2);
  {
    ShardScope scope(3);
    slo().on_dispatch_executed(0, -milliseconds(1), t0);
    slo().on_dispatch_executed(0, milliseconds(4), t0 + 1);
  }
  const auto shards = slo().snapshot_shards(slo().latest_now());
  bool found = false;
  for (const auto& shard : shards) {
    if (shard.shard == 3) {
      found = true;
      EXPECT_EQ(shard.dispatches_short, 2u);
      EXPECT_EQ(shard.dispatch_misses_short, 1u);
      EXPECT_EQ(shard.dispatch_headroom_min, -milliseconds(1));
    }
  }
  EXPECT_TRUE(found) << "shard 3 missing from fold";
}

TEST_F(SloTest, JsonDocumentsParseAndCarryAlerts) {
  const TimePoint t0 = seconds(1);
  slo().on_dispatch_executed(0, -milliseconds(1), t0);
  slo().evaluate(t0);

  const std::string alerts = slo().alerts_json(0);
  auto parsed = parse_json(alerts);
  ASSERT_TRUE(parsed.has_value()) << alerts;
  const JsonValue* list = parsed->find("alerts");
  ASSERT_NE(list, nullptr);
  ASSERT_FALSE(list->array.empty());
  const JsonValue* name = list->array[0].find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_FALSE(name->str.empty());

  const std::string doc = slo().slo_json(0);
  auto parsed_doc = parse_json(doc);
  ASSERT_TRUE(parsed_doc.has_value()) << doc;
  EXPECT_NE(parsed_doc->find("topics"), nullptr);
  EXPECT_NE(parsed_doc->find("shards"), nullptr);
  EXPECT_NE(parsed_doc->find("alerts"), nullptr);
}

// ---- HTTP endpoint regression (satellite: /alerts + 503 /healthz) --------

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect failed: " << std::strerror(errno);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(SloTest, HealthzTurns503WhenACriticalRuleFires) {
  auto server = HttpExporter::create({});
  ASSERT_TRUE(server.is_ok());
  const std::uint16_t port = server.value()->port();

  // Healthy first.
  EXPECT_NE(http_get(port, "/healthz").find("HTTP/1.0 200"),
            std::string::npos);

  // Sustained Lemma 2 misses -> fast-burn critical -> 503 with a reason.
  const TimePoint t0 = seconds(5);
  for (int i = 0; i < 40; ++i) {
    slo().on_dispatch_executed(0, -milliseconds(2), t0 + i);
  }
  const std::string unhealthy = http_get(port, "/healthz");
  EXPECT_NE(unhealthy.find("HTTP/1.0 503"), std::string::npos) << unhealthy;
  EXPECT_NE(unhealthy.find("critical alert firing"), std::string::npos);

  const std::string alerts = http_get(port, "/alerts");
  EXPECT_NE(alerts.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(alerts.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(alerts.find("lemma2-burn-fast"), std::string::npos) << alerts;
  EXPECT_NE(alerts.find("\"firing\":true"), std::string::npos) << alerts;

  const std::string doc = http_get(port, "/slo.json");
  EXPECT_NE(doc.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(doc.find("\"topics\""), std::string::npos) << doc;
}

// ---- flight recorder ------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/frame-slo-test-XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::string cmd = "rm -rf '" + path_ + "'";
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

TEST_F(SloTest, FlightRecorderWritesExactlyOneBundle) {
  if (!kCompiled) GTEST_SKIP() << "built with FRAME_OBS=OFF";
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  flight_recorder().set_directory(dir.path());
  flight_recorder().reset();

  // Give the bundle something to freeze.
  SpanEvent span;
  span.kind = SpanKind::kPublish;
  span.topic = 0;
  span.seq = 1;
  span.at = milliseconds(1);
  span.trace_id = 42;
  tracer().record(span);
  slo().on_dispatch_executed(0, -milliseconds(1), seconds(1));

  flight_recorder().trigger(TriggerReason::kLemma2Miss, "test", seconds(1));
  flight_recorder().trigger(TriggerReason::kCriticalAlert, "again",
                            seconds(2));
  EXPECT_EQ(flight_recorder().bundles_written(), 1u)
      << "latch must admit exactly one bundle";
  EXPECT_GE(flight_recorder().triggers_seen(), 2u);

  const std::string bundle = flight_recorder().last_bundle_path();
  ASSERT_FALSE(bundle.empty());

  const std::string manifest = slurp(bundle + "/manifest.txt");
  EXPECT_NE(manifest.find("frame-postmortem v1"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("reason lemma2-miss"), std::string::npos);
  EXPECT_NE(manifest.find("detail test"), std::string::npos);

  // trace.dump must be stitchable and slo.json/metrics.json valid JSON.
  const std::string trace = slurp(bundle + "/trace.dump");
  const auto dumps = parse_dumps(trace);
  ASSERT_FALSE(dumps.empty());
  EXPECT_FALSE(dumps[0].spans.empty());
  EXPECT_TRUE(parse_json(slurp(bundle + "/slo.json")).has_value());
  EXPECT_TRUE(parse_json(slurp(bundle + "/metrics.json")).has_value());

  flight_recorder().set_directory("");
  flight_recorder().reset();
}

TEST_F(SloTest, DisarmedRecorderCountsTriggersButWritesNothing) {
  flight_recorder().set_directory("");
  flight_recorder().reset();
  const std::uint64_t before = flight_recorder().bundles_written();
  flight_recorder().trigger(TriggerReason::kManual);
  EXPECT_EQ(flight_recorder().bundles_written(), before);
  EXPECT_TRUE(flight_recorder().last_bundle_path().empty());
}

}  // namespace
}  // namespace frame::obs
