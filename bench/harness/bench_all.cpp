// bench_all: the release-forced microbenchmark runner behind
// scripts/bench.sh.
//
//   bench_all [--suite=micro|tcp|all] [--out-dir=DIR] [--quick]
//             [--force-ungated]
//
// Runs two suites and writes one canonical frame-bench-v1 document per
// suite (BENCH_micro.json / BENCH_tcp.json) into the repo root (or
// --out-dir):
//   micro  hand-rolled steady_clock ns/op loops over the hot paths (EDF
//          and FIFO job queues, replicate-job cancellation, ring-buffer
//          eviction, wire codec, engine publish/dispatch with obs off and
//          on)
//   tcp    loopback epoll transport: ping-pong RTT percentiles, fan-in
//          throughput
// End-to-end numbers come from framebench/, not from here.
//
// The harness links frame_release (bench/harness/CMakeLists.txt), whose
// sources are force-compiled -O2 -DNDEBUG whatever the top-level build
// type.  If the linked library still is not bench-grade (sanitizer
// configured), the run refuses to write JSON unless --force-ungated, and
// then tags every document "gated": false so frame_bench_diff cannot
// fail CI on it.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench_env.hpp"
#include "broker/primary_engine.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "core/job_queue.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"

namespace frame::bench {
namespace {

struct Options {
  std::string suite = "all";
  std::string out_dir;
  bool quick = false;
  bool force_ungated = false;
};

BenchSeries series(std::string name, std::string unit, double value,
                   bool gated = true) {
  BenchSeries s;
  s.name = std::move(name);
  s.unit = std::move(unit);
  s.value = value;
  s.gated = gated;
  return s;
}

// ------------------------------- micro ----------------------------------

Job make_job(JobKind kind, TopicId topic, SeqNo seq, TimePoint deadline,
             std::uint64_t order) {
  Job job;
  job.kind = kind;
  job.topic = topic;
  job.seq = seq;
  job.deadline = deadline;
  job.order = order;
  return job;
}

PrimaryEngine micro_engine() {
  TimingParams params;
  params.delta_pb = 0;
  params.delta_bs_edge = milliseconds(1);
  params.delta_bs_cloud = milliseconds(20);
  params.delta_bb = microseconds(50);
  params.failover_x = milliseconds(50);
  std::vector<TopicSpec> specs;
  for (int cat = 0; cat < kTable2Categories; ++cat) {
    specs.push_back(table2_spec(cat, static_cast<TopicId>(cat)));
  }
  PrimaryEngine engine(broker_config(ConfigName::kFrame), std::move(specs),
                       params);
  for (TopicId topic = 0; topic < kTable2Categories; ++topic) {
    engine.subscribe(topic, 100);
  }
  return engine;
}

/// ns/op of one message through a fresh engine: publish + dispatch of a
/// never-replicated topic (Table 2 category 0), or with `replicate`
/// publish + replicate + dispatch (+ prune) of a replicated one (category
/// 2).  `now` reaches execute_* so the slack hooks run when obs is on.
double time_engine_path(std::size_t batch, std::size_t batches,
                        bool replicate) {
  PrimaryEngine engine = micro_engine();
  const TopicId topic = replicate ? 2 : 0;
  SeqNo seq = 1;
  TimePoint now = 0;
  return time_op_ns(batch, batches, [&] {
    engine.on_publish(make_test_message(topic, seq, now), now);
    if (replicate) {
      const auto rep = engine.next_job();
      (void)engine.execute_replicate(*rep, now);
    }
    const auto disp = engine.next_job();
    (void)engine.execute_dispatch(*disp, now);
    ++seq;
    now += 1000;
  });
}

std::vector<BenchSeries> run_micro(const Options& options) {
  const std::size_t batch = options.quick ? 2000 : 20000;
  const std::size_t batches = options.quick ? 5 : 15;
  std::vector<BenchSeries> out;

  // EDF (the FRAME configs) against FIFO (FCFS) at a 4096-job backlog.
  for (const auto policy : {SchedulingPolicy::kEdf, SchedulingPolicy::kFifo}) {
    Rng rng(1);
    JobQueue queue(policy);
    for (std::size_t i = 0; i < 4096; ++i) {
      queue.push(make_job(JobKind::kDispatch, 0, i,
                          static_cast<TimePoint>(rng.next_below(1 << 20)),
                          i));
    }
    std::uint64_t order = 4096;
    out.push_back(series(
        policy == SchedulingPolicy::kEdf ? "job_queue_push_pop_edf_ns"
                                         : "job_queue_push_pop_fifo_ns",
        "ns/op", time_op_ns(batch, batches, [&] {
          queue.push(make_job(JobKind::kDispatch, 0, order,
                              static_cast<TimePoint>(rng.next_below(1 << 20)),
                              order));
          ++order;
          auto job = queue.pop();
          if (!job.has_value()) std::abort();
        })));
  }

  {
    // The coordination path: a dispatch cancels its message's pending
    // replicate job, which pop() then skips.
    JobQueue queue(SchedulingPolicy::kEdf);
    SeqNo seq = 0;
    out.push_back(series(
        "job_queue_cancel_replication_ns", "ns/op",
        time_op_ns(batch, batches, [&] {
          queue.push(make_job(JobKind::kReplicate, 1, seq, 100, 2 * seq));
          queue.push(make_job(JobKind::kDispatch, 1, seq, 200, 2 * seq + 1));
          queue.cancel_replication(1, seq);
          const auto job = queue.pop();
          if (!job.has_value() || job->kind != JobKind::kDispatch) {
            std::abort();
          }
          ++seq;
        })));
  }

  {
    // A full retention ring: every push evicts the oldest message.
    RingBuffer<Message> ring(10);
    SeqNo seq = 0;
    std::size_t evicted = 0;
    out.push_back(series("ring_buffer_push_evict_ns", "ns/op",
                         time_op_ns(batch, batches, [&] {
                           if (ring.push_back(make_test_message(0, seq++, 0))) {
                             ++evicted;
                           }
                         })));
    if (evicted == 0) std::abort();
  }

  {
    const Message msg = make_test_message(7, 42, 123456789);
    std::size_t bytes = 0;
    out.push_back(series("wire_encode_message_ns", "ns/op",
                         time_op_ns(batch, batches, [&] {
                           bytes +=
                               encode_message_frame(WireType::kPublish, msg)
                                   .size();
                         })));
    if (bytes == 0) std::abort();
  }

  {
    const auto frame =
        encode_message_frame(WireType::kPublish, make_test_message(7, 42, 1));
    std::size_t decoded = 0;
    out.push_back(series("wire_decode_message_ns", "ns/op",
                         time_op_ns(batch, batches, [&] {
                           if (decode_message_frame(frame)) ++decoded;
                         })));
    if (decoded == 0) std::abort();
  }

  // The two engine paths with obs off, then on: the pair is the runtime
  // cost of obs::hooks.  Obs goes on before each engine is built, because
  // PrimaryEngine registers its topics with the deadline accountant and the
  // SLO monitor only while obs is on.
  for (const bool obs_on : {false, true}) {
    obs::EnabledScope scope(obs_on);
    for (const bool replicate : {false, true}) {
      obs::reset_all();
      std::string name = replicate ? "engine_publish_replicate_dispatch"
                                   : "engine_publish_dispatch";
      name += obs_on ? "_obs_on_ns" : "_ns";
      out.push_back(series(std::move(name), "ns/op",
                           time_engine_path(batch, batches, replicate)));
    }
  }
  return out;
}

// -------------------------------- tcp -----------------------------------

/// Echo/sink server on the epoll transport (the production wire path).
class EchoServer {
 public:
  EchoServer(bool echo, std::atomic<std::uint64_t>* counter)
      : echo_(echo), counter_(counter) {
    auto listener =
        TcpListener::listen(0, [this](std::unique_ptr<TcpConnection> conn) {
          TcpConnection* raw = conn.get();
          raw->start([this, raw](std::vector<std::uint8_t> frame) {
            if (echo_) (void)raw->send_frame(frame);
            if (counter_) counter_->fetch_add(1, std::memory_order_relaxed);
          });
          std::lock_guard<std::mutex> lock(mutex_);
          conns_.push_back(std::move(conn));
        });
    listener_ = std::move(listener.value());
  }

  std::uint16_t port() const { return listener_->port(); }

 private:
  bool echo_;
  std::atomic<std::uint64_t>* counter_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<TcpConnection>> conns_;
  std::unique_ptr<TcpListener> listener_;
};

std::vector<BenchSeries> run_tcp(const Options& options) {
  std::vector<BenchSeries> out;

  {
    // Ping-pong RTT over one connection, one frame in flight.
    EchoServer server(/*echo=*/true, nullptr);
    std::atomic<std::uint64_t> replies{0};
    auto client = TcpConnection::connect("127.0.0.1", server.port());
    if (!client.is_ok()) {
      std::fprintf(stderr, "bench_all: tcp connect failed\n");
      std::exit(2);
    }
    client.value()->start([&replies](std::vector<std::uint8_t>) {
      replies.fetch_add(1, std::memory_order_release);
    });
    const std::vector<std::uint8_t> frame(64, 0xab);
    const int rounds = options.quick ? 400 : 4000;
    SampleSet rtt;
    std::uint64_t expected = 0;
    for (int warm = 0; warm < rounds / 10 + 1; ++warm) {
      (void)client.value()->send_frame(frame);
      ++expected;
      while (replies.load(std::memory_order_acquire) < expected) {
        std::this_thread::yield();
      }
    }
    for (int i = 0; i < rounds; ++i) {
      const std::int64_t t0 = steady_now_ns();
      while (client.value()->send_frame(frame).code() ==
             StatusCode::kCapacity) {
        std::this_thread::yield();
      }
      ++expected;
      while (replies.load(std::memory_order_acquire) < expected) {
        std::this_thread::yield();
      }
      rtt.add(static_cast<double>(steady_now_ns() - t0));
    }
    auto s = series("tcp_pingpong_rtt_ns", "ns", rtt.percentile(50.0));
    s.percentiles = {{"p50", rtt.percentile(50.0)},
                     {"p90", rtt.percentile(90.0)},
                     {"p99", rtt.percentile(99.0)}};
    out.push_back(std::move(s));
  }

  {
    // Fan-in throughput: N publishers burst into one sink.  Best of
    // three repetitions — interference only lowers throughput, so the
    // fastest rep is the stable estimate (mirrors time_op_ns's min).
    constexpr int kPublishers = 16;
    const int frames_each = options.quick ? 500 : 5000;
    const int reps = options.quick ? 1 : 3;
    const std::vector<std::uint8_t> frame(64, 0x5a);
    double best_rate = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      std::atomic<std::uint64_t> received{0};
      EchoServer server(/*echo=*/false, &received);
      std::vector<std::unique_ptr<TcpConnection>> clients;
      for (int i = 0; i < kPublishers; ++i) {
        auto client = TcpConnection::connect("127.0.0.1", server.port());
        if (!client.is_ok()) {
          std::fprintf(stderr, "bench_all: tcp connect failed\n");
          std::exit(2);
        }
        client.value()->start([](std::vector<std::uint8_t>) {});
        clients.push_back(std::move(client.value()));
      }
      const std::uint64_t total =
          static_cast<std::uint64_t>(kPublishers) * frames_each;
      const std::int64_t t0 = steady_now_ns();
      std::vector<std::thread> senders;
      for (const auto& client : clients) {
        TcpConnection* conn = client.get();
        senders.emplace_back([conn, &frame, frames_each] {
          for (int j = 0; j < frames_each; ++j) {
            while (conn->send_frame(frame).code() == StatusCode::kCapacity) {
              std::this_thread::yield();
            }
          }
        });
      }
      for (auto& sender : senders) sender.join();
      while (received.load(std::memory_order_relaxed) < total) {
        std::this_thread::yield();
      }
      const double seconds =
          static_cast<double>(steady_now_ns() - t0) / 1e9;
      const double rate = static_cast<double>(total) / seconds;
      if (rate > best_rate) best_rate = rate;
    }
    out.push_back(
        series("tcp_fanin_throughput_items_per_s", "items/s", best_rate));
  }
  return out;
}

// -------------------------------- main ----------------------------------

int run(int argc, char** argv) {
  Options options;
#ifdef FRAME_REPO_ROOT
  const std::string repo_root = FRAME_REPO_ROOT;
#else
  const std::string repo_root = ".";
#endif
  options.out_dir = repo_root;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--suite=micro" || arg == "--suite=tcp" ||
        arg == "--suite=all") {
      options.suite = arg.substr(8);
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      options.out_dir = arg.substr(10);
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--force-ungated") {
      options.force_ungated = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_all [--suite=micro|tcp|all] "
                   "[--out-dir=DIR] [--quick] [--force-ungated]\n");
      return 2;
    }
  }

  const BenchEnv env = capture_bench_env(repo_root);
  std::printf("bench_all: build=%s optimized=%s sanitizer=%s cpus=%d "
              "governor=%s sha=%s%s\n",
              env.build.build_type, env.build.optimized ? "yes" : "no",
              env.build.sanitizer, env.num_cpus, env.governor.c_str(),
              env.git_sha.c_str(), env.gated ? "" : " [NOT BENCH-GRADE]");
  if (!env.gated && !options.force_ungated) {
    std::fprintf(stderr,
                 "bench_all: refusing to publish numbers from a non-release "
                 "or sanitized frame library (build=%s, sanitizer=%s).\n"
                 "bench_all: pass --force-ungated to write them tagged "
                 "\"gated\": false.\n",
                 env.build.build_type, env.build.sanitizer);
    return 3;
  }

  const bool all = options.suite == "all";
  const auto publish = [&](const std::string& suite,
                           std::vector<BenchSeries> series_list) {
    const std::string path = options.out_dir + "/BENCH_" + suite + ".json";
    const std::string doc = bench_report_json(suite, env, series_list);
    if (!write_text_file(path, doc)) {
      std::fprintf(stderr, "bench_all: cannot write %s\n", path.c_str());
      std::exit(2);
    }
    std::printf("bench_all: wrote %s (%zu series)\n", path.c_str(),
                series_list.size());
  };

  if (all || options.suite == "micro") publish("micro", run_micro(options));
  if (all || options.suite == "tcp") publish("tcp", run_tcp(options));
  return 0;
}

}  // namespace
}  // namespace frame::bench

int main(int argc, char** argv) { return frame::bench::run(argc, argv); }
