// Microbenchmarks (google-benchmark) for the hot data structures and code
// paths: EDF job queue, ring buffers, wire codec, the Primary engine's
// publish/dispatch/replicate path, and the TCP transport.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "broker/primary_engine.hpp"
#include "common/build_info.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "core/job_queue.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"

namespace frame {
namespace {

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

void BM_JobQueuePushPopEdf(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  JobQueue queue(SchedulingPolicy::kEdf);
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(make_job(JobKind::kDispatch, 0, i,
                        static_cast<TimePoint>(rng.next_below(1 << 20)), i));
  }
  std::uint64_t order = depth;
  for (auto _ : state) {
    queue.push(make_job(JobKind::kDispatch, 0, order,
                        static_cast<TimePoint>(rng.next_below(1 << 20)),
                        order));
    ++order;
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_JobQueuePushPopEdf)->Arg(64)->Arg(4096)->Arg(262144);

void BM_JobQueuePushPopFifo(benchmark::State& state) {
  JobQueue queue(SchedulingPolicy::kFifo);
  for (std::size_t i = 0; i < 4096; ++i) {
    queue.push(make_job(JobKind::kDispatch, 0, i, 0, i));
  }
  std::uint64_t order = 4096;
  for (auto _ : state) {
    queue.push(make_job(JobKind::kDispatch, 0, order, 0, order));
    ++order;
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_JobQueuePushPopFifo);

void BM_JobQueueCancellation(benchmark::State& state) {
  // The coordination path: push replicate + dispatch, cancel, pop both.
  JobQueue queue(SchedulingPolicy::kEdf);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    queue.push(make_job(JobKind::kReplicate, 1, seq, 100, 2 * seq));
    queue.push(make_job(JobKind::kDispatch, 1, seq, 200, 2 * seq + 1));
    queue.cancel_replication(1, seq);
    benchmark::DoNotOptimize(queue.pop());  // dispatch; replicate dropped
    ++seq;
  }
}
BENCHMARK(BM_JobQueueCancellation);

void BM_RingBufferPushEvict(benchmark::State& state) {
  RingBuffer<Message> ring(10);
  SeqNo seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.push_back(make_test_message(0, seq++, 0)));
  }
}
BENCHMARK(BM_RingBufferPushEvict);

void BM_WireEncodeMessage(benchmark::State& state) {
  const Message msg = make_test_message(7, 42, 123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encode_message_frame(WireType::kPublish, msg));
  }
}
BENCHMARK(BM_WireEncodeMessage);

void BM_WireDecodeMessage(benchmark::State& state) {
  const auto frame =
      encode_message_frame(WireType::kPublish, make_test_message(7, 42, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_message_frame(frame));
  }
}
BENCHMARK(BM_WireDecodeMessage);

PrimaryEngine bench_engine(ConfigName name) {
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
  PrimaryEngine engine(broker_config(name), std::move(specs), params);
  for (TopicId topic = 0; topic < kTable2Categories; ++topic) {
    engine.subscribe(topic, 100);
  }
  return engine;
}

void BM_EnginePublishDispatch(benchmark::State& state) {
  // The FRAME fast path for a non-replicated topic: publish + dispatch.
  PrimaryEngine engine = bench_engine(ConfigName::kFrame);
  SeqNo seq = 1;
  TimePoint now = 0;
  for (auto _ : state) {
    engine.on_publish(make_test_message(0, seq, now), now);
    const auto job = engine.next_job();
    benchmark::DoNotOptimize(engine.execute_dispatch(*job));
    ++seq;
    now += 1000;
  }
}
BENCHMARK(BM_EnginePublishDispatch);

void BM_EnginePublishReplicateDispatch(benchmark::State& state) {
  // The replicated-topic path: publish + replicate + dispatch (+ prune).
  PrimaryEngine engine = bench_engine(ConfigName::kFrame);
  SeqNo seq = 1;
  TimePoint now = 0;
  for (auto _ : state) {
    engine.on_publish(make_test_message(2, seq, now), now);
    const auto rep = engine.next_job();
    benchmark::DoNotOptimize(engine.execute_replicate(*rep));
    const auto disp = engine.next_job();
    benchmark::DoNotOptimize(engine.execute_dispatch(*disp));
    ++seq;
    now += 1000;
  }
}
BENCHMARK(BM_EnginePublishReplicateDispatch);

void BM_EnginePublishDispatchObs(benchmark::State& state) {
  // Same fast path with observability compiled in and toggled by the
  // benchmark argument (0 = obs off, 1 = obs on).  The 0 case bounds the
  // disabled-hook overhead vs BM_EnginePublishDispatch.
  obs::EnabledScope scope(state.range(0) != 0);
  obs::reset_all();
  PrimaryEngine engine = bench_engine(ConfigName::kFrame);
  SeqNo seq = 1;
  TimePoint now = 0;
  for (auto _ : state) {
    engine.on_publish(make_test_message(0, seq, now), now);
    const auto job = engine.next_job();
    benchmark::DoNotOptimize(engine.execute_dispatch(*job, now));
    ++seq;
    now += 1000;
  }
}
BENCHMARK(BM_EnginePublishDispatchObs)->Arg(0)->Arg(1);

void BM_EnginePublishReplicateDispatchObs(benchmark::State& state) {
  obs::EnabledScope scope(state.range(0) != 0);
  obs::reset_all();
  PrimaryEngine engine = bench_engine(ConfigName::kFrame);
  SeqNo seq = 1;
  TimePoint now = 0;
  for (auto _ : state) {
    engine.on_publish(make_test_message(2, seq, now), now);
    const auto rep = engine.next_job();
    benchmark::DoNotOptimize(engine.execute_replicate(*rep, now));
    const auto disp = engine.next_job();
    benchmark::DoNotOptimize(engine.execute_dispatch(*disp, now));
    ++seq;
    now += 1000;
  }
}
BENCHMARK(BM_EnginePublishReplicateDispatchObs)->Arg(0)->Arg(1);

// ================== transport: blocking reference vs epoll ==============
//
// Blocking reference = the pre-reactor wire path: one blocking socket per
// connection, one OS thread per reader, recv-exact framing (header then
// payload) and one send() per frame.  It lives here so the epoll transport
// keeps being measured against the design it replaced.

constexpr std::size_t kSmallFrame = 64;
constexpr int kFanInPublishers = 64;
constexpr int kFanInBurst = 16;

int blocking_client_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_exact(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_exact(int fd, std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool blocking_send_frame(int fd, const std::vector<std::uint8_t>& payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(size & 0xff),
      static_cast<std::uint8_t>((size >> 8) & 0xff),
      static_cast<std::uint8_t>((size >> 16) & 0xff),
      static_cast<std::uint8_t>((size >> 24) & 0xff)};
  return send_exact(fd, header, sizeof header) &&
         send_exact(fd, payload.data(), payload.size());
}

bool blocking_recv_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint8_t header[4];
  if (!recv_exact(fd, header, sizeof header)) return false;
  const std::uint32_t size =
      static_cast<std::uint32_t>(header[0]) |
      (static_cast<std::uint32_t>(header[1]) << 8) |
      (static_cast<std::uint32_t>(header[2]) << 16) |
      (static_cast<std::uint32_t>(header[3]) << 24);
  payload.resize(size);
  return recv_exact(fd, payload.data(), size);
}

class BlockingServer {
 public:
  BlockingServer(bool echo, std::atomic<std::uint64_t>* counter)
      : echo_(echo), counter_(counter) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 128);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~BlockingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (auto& reader : readers_) reader.join();
    for (const int fd : conn_fds_) ::close(fd);
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  void accept_loop() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      std::lock_guard<std::mutex> lock(mutex_);
      conn_fds_.push_back(fd);
      readers_.emplace_back([this, fd] { reader_loop(fd); });
    }
  }

  void reader_loop(int fd) {
    std::vector<std::uint8_t> payload;
    while (blocking_recv_frame(fd, payload)) {
      if (echo_ && !blocking_send_frame(fd, payload)) return;
      if (counter_) counter_->fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool echo_;
  std::atomic<std::uint64_t>* counter_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex mutex_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> readers_;
  std::thread accept_thread_;
};

class EpollServer {
 public:
  EpollServer(bool echo, std::atomic<std::uint64_t>* counter)
      : echo_(echo), counter_(counter) {
    auto listener = TcpListener::listen(
        0, [this](std::unique_ptr<TcpConnection> conn) {
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
  // Destruction order: listener first (no new conns), then connections
  // (deregistered before echo_/counter_ go away).
  std::vector<std::unique_ptr<TcpConnection>> conns_;
  std::unique_ptr<TcpListener> listener_;
};

/// Releases all publisher threads for one burst per benchmark iteration.
class BurstDriver {
 public:
  bool await_release(std::uint64_t& seen) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return false;
    seen = generation_;
    return true;
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++generation_;
    }
    cv_.notify_all();
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

void BM_TcpPingPongBlocking(benchmark::State& state) {
  BlockingServer server(/*echo=*/true, nullptr);
  const int fd = blocking_client_socket(server.port());
  if (fd < 0) {
    state.SkipWithError("connect failed");
    return;
  }
  const std::vector<std::uint8_t> frame(kSmallFrame, 0xab);
  std::vector<std::uint8_t> reply;
  for (auto _ : state) {
    blocking_send_frame(fd, frame);
    blocking_recv_frame(fd, reply);
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}
BENCHMARK(BM_TcpPingPongBlocking)->UseRealTime();

void BM_TcpPingPongEpoll(benchmark::State& state) {
  EpollServer server(/*echo=*/true, nullptr);
  std::atomic<std::uint64_t> replies{0};
  auto client = TcpConnection::connect("127.0.0.1", server.port());
  if (!client.is_ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  client.value()->start([&replies](std::vector<std::uint8_t>) {
    replies.fetch_add(1, std::memory_order_release);
  });
  const std::vector<std::uint8_t> frame(kSmallFrame, 0xab);
  std::uint64_t expected = 0;
  for (auto _ : state) {
    while (client.value()->send_frame(frame).code() == StatusCode::kCapacity) {
      std::this_thread::yield();
    }
    ++expected;
    while (replies.load(std::memory_order_acquire) < expected) {
      std::this_thread::yield();
    }
  }
}
BENCHMARK(BM_TcpPingPongEpoll)->UseRealTime();

void BM_TcpFanInBlocking(benchmark::State& state) {
  std::atomic<std::uint64_t> received{0};
  BlockingServer server(/*echo=*/false, &received);
  BurstDriver driver;
  const std::vector<std::uint8_t> frame(kSmallFrame, 0x5a);
  std::vector<int> fds;
  for (int i = 0; i < kFanInPublishers; ++i) {
    const int fd = blocking_client_socket(server.port());
    if (fd < 0) {
      state.SkipWithError("connect failed");
      for (const int open_fd : fds) ::close(open_fd);
      return;
    }
    fds.push_back(fd);
  }
  std::vector<std::thread> senders;
  for (const int fd : fds) {
    senders.emplace_back([&driver, &frame, fd] {
      std::uint64_t seen = 0;
      while (driver.await_release(seen)) {
        for (int j = 0; j < kFanInBurst; ++j) blocking_send_frame(fd, frame);
      }
    });
  }
  std::uint64_t target = 0;
  for (auto _ : state) {
    target += static_cast<std::uint64_t>(kFanInPublishers) * kFanInBurst;
    driver.release();
    while (received.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kFanInPublishers * kFanInBurst);
  driver.stop();
  for (auto& sender : senders) sender.join();
  for (const int fd : fds) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}
BENCHMARK(BM_TcpFanInBlocking)->UseRealTime();

void BM_TcpFanInEpoll(benchmark::State& state) {
  std::atomic<std::uint64_t> received{0};
  EpollServer server(/*echo=*/false, &received);
  BurstDriver driver;
  const std::vector<std::uint8_t> frame(kSmallFrame, 0x5a);
  std::vector<std::unique_ptr<TcpConnection>> clients;
  for (int i = 0; i < kFanInPublishers; ++i) {
    auto client = TcpConnection::connect("127.0.0.1", server.port());
    if (!client.is_ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    client.value()->start([](std::vector<std::uint8_t>) {});
    clients.push_back(std::move(client.value()));
  }
  std::vector<std::thread> senders;
  for (const auto& client : clients) {
    TcpConnection* conn = client.get();
    senders.emplace_back([&driver, &frame, conn] {
      std::uint64_t seen = 0;
      while (driver.await_release(seen)) {
        for (int j = 0; j < kFanInBurst; ++j) {
          while (conn->send_frame(frame).code() == StatusCode::kCapacity) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  std::uint64_t target = 0;
  for (auto _ : state) {
    target += static_cast<std::uint64_t>(kFanInPublishers) * kFanInBurst;
    driver.release();
    while (received.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kFanInPublishers * kFanInBurst);
  driver.stop();
  for (auto& sender : senders) sender.join();
}
BENCHMARK(BM_TcpFanInEpoll)->UseRealTime();

}  // namespace
}  // namespace frame

// Custom main instead of BENCHMARK_MAIN(): unless the caller passed their
// own --benchmark_out, mirror the run as machine-readable JSON to
// FRAME_BENCH_JSON_PATH (build tree, injected by CMake) so regressions
// diff as data, not as console text.  The mirror is only written when the
// linked frame library is a bench-grade build (release, optimized, no
// sanitizer): numbers from anything else must never look publishable.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
#ifdef FRAME_BENCH_JSON_PATH
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=" FRAME_BENCH_JSON_PATH;
  static char format_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    if (frame::bench_grade_build()) {
      args.push_back(out_flag);
      args.push_back(format_flag);
    } else {
      const frame::BuildInfo info = frame::library_build_info();
      std::fprintf(stderr,
                   "bench_micro: frame library is not bench-grade "
                   "(build=%s, sanitizer=%s); refusing to write %s\n",
                   info.build_type, info.sanitizer, FRAME_BENCH_JSON_PATH);
    }
  }
#endif
  int arg_count = static_cast<int>(args.size());
  benchmark::Initialize(&arg_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(arg_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
