// Framed TCP transport over non-blocking sockets and an epoll reactor.
//
// Frames are u32 little-endian length-prefixed byte strings carrying the
// wire.hpp protocol.  A single EpollLoop thread drives every socket
// registered with it: reads drain the kernel buffer in large chunks and
// re-assemble frames across partial deliveries; writes go through a
// bounded per-connection outbound queue that the reactor flushes with one
// gathering sendmsg per wakeup (corking), so many small frames cost one
// syscall.  MSG_NOSIGNAL turns a write to a closed peer into EPIPE instead
// of a process-killing SIGPIPE.
//
// send_frame() is thread-safe and never blocks: when the socket is
// writable and the queue is empty it attempts one optimistic non-blocking
// sendmsg inline (single-frame latency equals the old blocking design);
// otherwise the frame is queued and the reactor flushes it.  A full queue
// is backpressure: send_frame returns kCapacity and drops nothing that
// was previously accepted.
//
// EINTR is retried everywhere; oversized frames are a protocol error that
// closes the connection with kProtocolError (and is rejected symmetrically
// at the send side); connect() takes a timeout so a dead address cannot
// stall a caller indefinitely.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/time.hpp"
#include "net/epoll_loop.hpp"

namespace frame {

/// One established connection, driven by an EpollLoop.
class TcpConnection {
 public:
  using FrameHandler = std::function<void(std::vector<std::uint8_t> frame)>;
  /// Invoked exactly once when the connection dies; the status says why
  /// (kClosed for EOF/reset/local close, kProtocolError for violations).
  using CloseHandler = std::function<void(const Status& reason)>;

  /// Frames larger than this are a protocol violation on both sides.
  static constexpr std::uint32_t kMaxFrame = 1u << 20;
  static constexpr Duration kDefaultConnectTimeout = seconds(2);
  static constexpr std::size_t kDefaultSendQueueLimit = 4u << 20;

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connects to host:port, waiting at most `timeout` (kUnavailable on
  /// expiry).  The connection is driven by `loop` (default: the shared
  /// process-wide loop).
  static Result<std::unique_ptr<TcpConnection>> connect(
      const std::string& host, std::uint16_t port,
      Duration timeout = kDefaultConnectTimeout, EpollLoop* loop = nullptr);

  /// Registers with the reactor and starts surfacing frames.  Must be
  /// called exactly once.
  void start(FrameHandler on_frame, CloseHandler on_close = nullptr);

  /// Thread-safe, non-blocking.  kCapacity = send queue full (back off and
  /// retry); kProtocolError = frame exceeds kMaxFrame (connection stays
  /// usable); kClosed = connection dead.
  Status send_frame(const std::vector<std::uint8_t>& frame);

  void close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Bytes currently queued for transmission (headers included).
  std::size_t send_queue_bytes() const;

  /// Caps the outbound queue; kCapacity is returned beyond it.
  void set_send_queue_limit(std::size_t bytes);

 private:
  friend class TcpListener;
  TcpConnection(int fd, EpollLoop* loop) : fd_(fd), loop_(loop) {}

  void on_events(std::uint32_t events);
  void drain_readable();
  /// Flushes the outbound queue with sendmsg; send_mutex_ must be held.
  /// Returns false when the connection must die.
  bool flush_locked();
  void update_write_interest_locked();
  void fail(const Status& reason);
  void deregister_and_close(const Status& reason);

  int fd_ = -1;
  EpollLoop* loop_ = nullptr;
  std::atomic<bool> closed_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> dead_{false};  ///< deregistered; on_close_ fired

  FrameHandler on_frame_;
  CloseHandler on_close_;

  // Receive state: owned by the loop thread.
  std::vector<std::uint8_t> rx_buf_;
  std::size_t rx_parsed_ = 0;

  // Send state: shared between callers and the loop thread.
  mutable std::mutex send_mutex_;
  std::deque<std::vector<std::uint8_t>> send_queue_;
  std::size_t send_queue_bytes_ = 0;
  std::size_t send_head_offset_ = 0;  ///< bytes of queue front already sent
  std::size_t send_queue_limit_ = kDefaultSendQueueLimit;
  bool write_armed_ = false;  ///< EPOLLOUT currently requested
};

/// Accepts connections on a local port and hands them to a callback (from
/// the loop thread).
class TcpListener {
 public:
  using AcceptHandler =
      std::function<void(std::unique_ptr<TcpConnection> connection)>;

  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds 127.0.0.1:port (port 0 picks an ephemeral port) and starts
  /// accepting on `loop` (default: the shared process-wide loop).
  static Result<std::unique_ptr<TcpListener>> listen(
      std::uint16_t port, AcceptHandler on_accept, EpollLoop* loop = nullptr);

  std::uint16_t port() const { return port_; }
  void close();

 private:
  TcpListener() = default;
  void on_events(std::uint32_t events);

  int fd_ = -1;
  std::uint16_t port_ = 0;
  EpollLoop* loop_ = nullptr;
  AcceptHandler on_accept_;
  std::atomic<bool> closed_{false};
};

}  // namespace frame
