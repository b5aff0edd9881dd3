// Transport hardening regressions: EINTR survival under a signal storm,
// bounded connect timeouts, oversized-frame protocol errors (both sides),
// partial-frame reassembly across syscalls, send-queue backpressure, no
// SIGPIPE from a close racing concurrent senders, and the determinism of
// the jittered reconnect backoff schedule.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/time.hpp"
#include "net/backoff.hpp"
#include "net/tcp.hpp"
#include "obs/obs.hpp"

namespace frame {
namespace {

struct Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::vector<std::uint8_t>> frames;

  void add(std::vector<std::uint8_t> frame) {
    std::lock_guard lock(mutex);
    frames.push_back(std::move(frame));
    cv.notify_all();
  }
  bool wait_for_count(std::size_t count, Duration timeout) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, std::chrono::nanoseconds(timeout),
                       [&] { return frames.size() >= count; });
  }
};

/// Server that keeps every accepted connection alive and collects frames.
/// Member order matters: connections and the listener are declared last so
/// they are destroyed first, while the state their callbacks touch is
/// still alive.
struct EchoServer {
  Collector rx;
  std::mutex mutex;
  Status last_close = Status::ok();
  std::condition_variable close_cv;
  bool closed = false;
  std::vector<std::unique_ptr<TcpConnection>> conns;
  std::unique_ptr<TcpListener> listener;

  bool open(bool start_connections = true) {
    auto result = TcpListener::listen(
        0, [this, start_connections](std::unique_ptr<TcpConnection> conn) {
          TcpConnection* raw = conn.get();
          {
            std::lock_guard lock(mutex);
            conns.push_back(std::move(conn));
          }
          if (start_connections) {
            raw->start(
                [this](std::vector<std::uint8_t> frame) {
                  rx.add(std::move(frame));
                },
                [this](const Status& reason) {
                  std::lock_guard lock(mutex);
                  last_close = reason;
                  closed = true;
                  close_cv.notify_all();
                });
          }
        });
    if (!result.is_ok()) return false;
    listener = result.take();
    return true;
  }

  bool wait_for_close(Duration timeout) {
    std::unique_lock lock(mutex);
    return close_cv.wait_for(lock, std::chrono::nanoseconds(timeout),
                             [&] { return closed; });
  }
};

// ----------------------------------------------------------------- EINTR

std::atomic<std::uint64_t> g_signals{0};
void count_signal(int) { g_signals.fetch_add(1, std::memory_order_relaxed); }

// Regression for the blocking transport treating EINTR as a fatal close in
// read_exact/send_all: a signal storm without SA_RESTART must not abort a
// transfer.
TEST(TcpEdge, TransferSurvivesSignalStorm) {
  struct sigaction action {};
  action.sa_handler = count_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  EchoServer server;
  ASSERT_TRUE(server.open());

  std::atomic<bool> storm_done{false};
  std::thread storm([&] {
    while (!storm_done.load(std::memory_order_acquire)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kFrames = 200;
  constexpr std::size_t kPayload = 16 * 1024;
  {
    auto client = TcpConnection::connect("127.0.0.1", server.listener->port());
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    client.value()->start([](std::vector<std::uint8_t>) {});
    std::vector<std::uint8_t> payload(kPayload);
    for (int i = 0; i < kFrames; ++i) {
      for (std::size_t j = 0; j < kPayload; ++j) {
        payload[j] = static_cast<std::uint8_t>((i + j) & 0xff);
      }
      Status status;
      do {  // kCapacity = transient backpressure, retry
        status = client.value()->send_frame(payload);
      } while (status.code() == StatusCode::kCapacity);
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
    ASSERT_TRUE(server.rx.wait_for_count(kFrames, seconds(30)));
    client.value()->close();
  }
  storm_done.store(true, std::memory_order_release);
  storm.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  EXPECT_GT(g_signals.load(), 0u) << "storm never fired; test is vacuous";
  ASSERT_EQ(server.rx.frames.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const auto& frame = server.rx.frames[i];
    ASSERT_EQ(frame.size(), kPayload);
    for (std::size_t j = 0; j < kPayload; j += 1024) {
      ASSERT_EQ(frame[j], static_cast<std::uint8_t>((i + j) & 0xff))
          << "frame " << i << " corrupted at offset " << j;
    }
  }
}

// ------------------------------------------------------- connect timeout

// Regression for TcpConnection::connect blocking indefinitely: a
// non-routable address must fail with kUnavailable within the timeout
// (some environments reject instantly with ENETUNREACH; both are bounded).
// A listener whose accept queue is full silently drops further SYNs, so a
// connect to it hangs in SYN_SENT -- the exact condition that used to wedge
// the old blocking connect() forever.  The timeout must fire instead.
TEST(TcpEdge, ConnectTimesOutWhenPeerNeverCompletesHandshake) {
  int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  // Fill the (never drained) accept queue so the attempt under test cannot
  // complete its handshake.
  int prefill[8];
  for (int& fd : prefill) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  MonotonicClock clock;
  const TimePoint start = clock.now();
  auto result = TcpConnection::connect("127.0.0.1", port, milliseconds(300));
  const Duration elapsed = clock.now() - start;
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().to_string();
  EXPECT_GE(elapsed, milliseconds(250)) << "timed out suspiciously early";
  EXPECT_LT(elapsed, seconds(3)) << "connect() was not bounded";

  for (const int fd : prefill) ::close(fd);
  ::close(lfd);
}

// ------------------------------------------------------ oversized frames

TEST(TcpEdge, OversizedFrameRejectedAtSendSide) {
  EchoServer server;
  ASSERT_TRUE(server.open());
  auto client = TcpConnection::connect("127.0.0.1", server.listener->port());
  ASSERT_TRUE(client.is_ok());
  client.value()->start([](std::vector<std::uint8_t>) {});

  const std::vector<std::uint8_t> oversized(TcpConnection::kMaxFrame + 1);
  const Status status = client.value()->send_frame(oversized);
  EXPECT_EQ(status.code(), StatusCode::kProtocolError);

  // The connection survives the local rejection.
  EXPECT_FALSE(client.value()->closed());
  ASSERT_TRUE(client.value()->send_frame({0x42}).is_ok());
  ASSERT_TRUE(server.rx.wait_for_count(1, seconds(5)));
  EXPECT_EQ(server.rx.frames[0], (std::vector<std::uint8_t>{0x42}));
}

TEST(TcpEdge, OversizedHeaderSurfacesProtocolErrorOnClose) {
  EchoServer server;
  ASSERT_TRUE(server.open());

  // A raw malicious client: claims a 256 MiB frame.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.listener->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::uint8_t bogus_header[4] = {0x00, 0x00, 0x00, 0x10};  // 1 << 28
  ASSERT_EQ(::send(raw, bogus_header, sizeof(bogus_header), MSG_NOSIGNAL), 4);

  ASSERT_TRUE(server.wait_for_close(seconds(5)));
  EXPECT_EQ(server.last_close.code(), StatusCode::kProtocolError)
      << server.last_close.to_string();
  ::close(raw);
}

// --------------------------------------------------- partial-frame reads

TEST(TcpEdge, ReassemblesFramesSplitAcrossSyscalls) {
  EchoServer server;
  ASSERT_TRUE(server.open());

  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.listener->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  auto frame_bytes = [](std::initializer_list<std::uint8_t> payload) {
    std::vector<std::uint8_t> out;
    const auto size = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
    }
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
  };

  // Frame 1 dribbles in one byte per syscall.
  const auto first = frame_bytes({1, 2, 3, 4, 5});
  for (const std::uint8_t byte : first) {
    ASSERT_EQ(::send(raw, &byte, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Frames 2 and 3 arrive glued together, split mid-header of frame 3.
  const auto second = frame_bytes({6, 7});
  const auto third = frame_bytes({8, 9, 10});
  std::vector<std::uint8_t> glued(second);
  glued.insert(glued.end(), third.begin(), third.begin() + 2);
  ASSERT_EQ(::send(raw, glued.data(), glued.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(glued.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(::send(raw, third.data() + 2, third.size() - 2, MSG_NOSIGNAL),
            static_cast<ssize_t>(third.size() - 2));

  ASSERT_TRUE(server.rx.wait_for_count(3, seconds(5)));
  EXPECT_EQ(server.rx.frames[0], (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(server.rx.frames[1], (std::vector<std::uint8_t>{6, 7}));
  EXPECT_EQ(server.rx.frames[2], (std::vector<std::uint8_t>{8, 9, 10}));
  ::close(raw);
}

// --------------------------------------------------------- backpressure

TEST(TcpEdge, SendQueueOverflowSurfacesCapacity) {
  EchoServer server;
  // Accepted connections are never started: nothing drains the pipe, so
  // kernel buffers fill, then the client's bounded queue fills.
  ASSERT_TRUE(server.open(/*start_connections=*/false));
  auto client = TcpConnection::connect("127.0.0.1", server.listener->port());
  ASSERT_TRUE(client.is_ok());
  client.value()->set_send_queue_limit(64 * 1024);
  client.value()->start([](std::vector<std::uint8_t>) {});

  const std::vector<std::uint8_t> payload(4096, 0xAB);
  bool saw_capacity = false;
  for (int i = 0; i < 200000; ++i) {
    const Status status = client.value()->send_frame(payload);
    if (status.code() == StatusCode::kCapacity) {
      saw_capacity = true;
      break;
    }
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  ASSERT_TRUE(saw_capacity) << "queue never reported backpressure";
  // Backpressure is not an error: the connection stays up and the queue
  // respects its cap.
  EXPECT_FALSE(client.value()->closed());
  EXPECT_LE(client.value()->send_queue_bytes(), 64u * 1024u);
}

// ------------------------------------------------------------- SIGPIPE

// Regression for the flush writing with writev: close() shuts the socket
// down without the send mutex, so a sender already past the closed check
// wrote to a shut-down socket and SIGPIPE killed the process.  SIGPIPE is
// deliberately left at its default here: a failure ends the test binary.
TEST(TcpEdge, CloseDuringConcurrentSendsRaisesNoSigpipe) {
  EchoServer server;
  ASSERT_TRUE(server.open());
  const std::vector<std::uint8_t> payload(512, 0x5A);
  for (int round = 0; round < 300; ++round) {
    auto client = TcpConnection::connect("127.0.0.1", server.listener->port());
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    TcpConnection& conn = *client.value();
    conn.start([](std::vector<std::uint8_t>) {});

    std::atomic<int> sent{0};
    std::vector<std::thread> senders;
    for (int t = 0; t < 3; ++t) {
      senders.emplace_back([&] {
        for (;;) {
          const Status status = conn.send_frame(payload);
          if (status.code() == StatusCode::kClosed) return;
          if (status.is_ok()) sent.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Close once frames are flowing.
    while (sent.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
    conn.close();
    for (auto& sender : senders) sender.join();
    EXPECT_TRUE(conn.closed());
  }
}

// ------------------------------------------------------------- backoff

TEST(Backoff, ScheduleIsDeterministicGivenSeed) {
  BackoffOptions options;
  options.base = milliseconds(10);
  options.max = milliseconds(500);
  options.multiplier = 2.0;
  options.jitter = 0.2;

  BackoffSchedule a(options, 7);
  BackoffSchedule b(options, 7);
  BackoffSchedule c(options, 8);
  bool differs_from_c = false;
  for (int i = 0; i < 10; ++i) {
    const Duration da = a.next_delay();
    const Duration db = b.next_delay();
    const Duration dc = c.next_delay();
    EXPECT_EQ(da, db) << "same seed diverged at attempt " << i;
    differs_from_c = differs_from_c || (da != dc);
    // Every delay respects the jittered envelope.
    EXPECT_GE(da, static_cast<Duration>(
                      static_cast<double>(options.base) * (1.0 - 0.2)));
    EXPECT_LE(da, options.max);
  }
  EXPECT_TRUE(differs_from_c) << "different seeds produced identical jitter";
  EXPECT_EQ(a.attempts(), 10);
}

TEST(Backoff, GrowsExponentiallyAndResets) {
  BackoffOptions options;
  options.base = milliseconds(10);
  options.max = seconds(10);
  options.multiplier = 2.0;
  options.jitter = 0.0;  // exact nominal values
  BackoffSchedule schedule(options, 1);
  EXPECT_EQ(schedule.next_delay(), milliseconds(10));
  EXPECT_EQ(schedule.next_delay(), milliseconds(20));
  EXPECT_EQ(schedule.next_delay(), milliseconds(40));
  schedule.reset();
  EXPECT_EQ(schedule.attempts(), 0);
  EXPECT_EQ(schedule.next_delay(), milliseconds(10));

  // The cap holds no matter how many attempts accumulate.
  BackoffOptions capped = options;
  capped.max = milliseconds(100);
  BackoffSchedule long_run(capped, 1);
  Duration last = 0;
  for (int i = 0; i < 40; ++i) last = long_run.next_delay();
  EXPECT_EQ(last, milliseconds(100));
}

}  // namespace
}  // namespace frame
