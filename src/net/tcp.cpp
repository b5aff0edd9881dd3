#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "obs/obs.hpp"

namespace frame {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

const MonotonicClock& wall() {
  static MonotonicClock clock;
  return clock;
}

/// Largest sendmsg batch per flush round; IOV_MAX is far bigger but the
/// marginal win flattens out well before that.
constexpr std::size_t kMaxIov = 64;

}  // namespace

// ---------------------------------------------------------------- connection

TcpConnection::~TcpConnection() {
  close();
  if (started_.load(std::memory_order_acquire)) {
    // After remove_sync the reactor can no longer invoke on_events; it is
    // idempotent, so racing the loop's own deregistration is safe.
    loop_->remove_sync(fd_);
  }
  if (!dead_.exchange(true, std::memory_order_acq_rel)) {
    if (on_close_ && started_.load(std::memory_order_acquire)) {
      on_close_(Status(StatusCode::kClosed, "connection destroyed"));
    }
  }
  ::close(fd_);
}

Result<std::unique_ptr<TcpConnection>> TcpConnection::connect(
    const std::string& host, std::uint16_t port, Duration timeout,
    EpollLoop* loop) {
  if (loop == nullptr) loop = &EpollLoop::default_loop();
  const TimePoint started = wall().now();
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status(StatusCode::kUnavailable, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(StatusCode::kInvalid, "bad address: " + host);
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  // EINTR: the attempt proceeds asynchronously, exactly like EINPROGRESS;
  // retrying connect() here would yield EALREADY.
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    const int err = errno;
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  "connect() failed: " + std::string(std::strerror(err)));
  }
  if (rc != 0) {
    const TimePoint deadline = started + timeout;
    for (;;) {
      const Duration remaining = deadline - wall().now();
      if (remaining <= 0) {
        ::close(fd);
        return Status(StatusCode::kUnavailable,
                      "connect() timed out to " + host + ":" +
                          std::to_string(port));
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout_ms =
          static_cast<int>(std::max<Duration>(remaining / 1'000'000, 1));
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0 && errno == EINTR) continue;
      if (pr > 0) break;
      // pr == 0: fell through the poll timeout; the deadline check above
      // decides whether to retry or give up.
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status(StatusCode::kUnavailable,
                    "connect() failed: " + std::string(std::strerror(err)));
    }
  }
  set_nodelay(fd);
  obs::hooks::tcp_connect_latency(wall().now() - started);
  return std::unique_ptr<TcpConnection>(new TcpConnection(fd, loop));
}

void TcpConnection::start(FrameHandler on_frame, CloseHandler on_close) {
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  std::uint32_t events = EPOLLIN;
  {
    std::lock_guard lock(send_mutex_);
    if (!send_queue_.empty()) {
      events |= EPOLLOUT;
      write_armed_ = true;
    }
    started_.store(true, std::memory_order_release);
  }
  const Status status =
      loop_->add(fd_, events, [this](std::uint32_t ev) { on_events(ev); });
  if (!status.is_ok()) {
    started_.store(false, std::memory_order_release);
    closed_.store(true, std::memory_order_release);
    FRAME_LOG_ERROR("TcpConnection: cannot register with reactor: %s",
                    status.to_string().c_str());
  }
}

Status TcpConnection::send_frame(const std::vector<std::uint8_t>& frame) {
  if (frame.size() > kMaxFrame) {
    obs::hooks::tcp_protocol_error();
    return Status(StatusCode::kProtocolError,
                  "frame of " + std::to_string(frame.size()) +
                      " bytes exceeds the " + std::to_string(kMaxFrame) +
                      "-byte limit");
  }
  if (closed_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kClosed, "connection closed");
  }
  // One buffer per frame, header included, so the reactor can cork many
  // frames into a single sendmsg.
  std::vector<std::uint8_t> buf;
  buf.reserve(frame.size() + 4);
  const auto size = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  }
  buf.insert(buf.end(), frame.begin(), frame.end());

  bool fatal = false;
  {
    std::lock_guard lock(send_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kClosed, "connection closed");
    }
    if (send_queue_bytes_ + buf.size() > send_queue_limit_) {
      obs::hooks::tcp_backpressure_drop();
      return Status(StatusCode::kCapacity, "send queue full");
    }
    const bool was_idle = send_queue_.empty();
    send_queue_bytes_ += buf.size();
    send_queue_.push_back(std::move(buf));
    if (was_idle && !write_armed_) {
      // Optimistic inline flush: under light load a frame goes out with
      // one syscall and no reactor wakeup; under pressure (EAGAIN or a
      // non-empty queue) frames accumulate and the reactor batches them.
      if (!flush_locked()) {
        fatal = true;
      } else {
        update_write_interest_locked();
      }
    }
    obs::hooks::tcp_send_queue_depth(send_queue_bytes_);
  }
  if (fatal) {
    fail(Status(StatusCode::kClosed, "send failed"));
    return Status(StatusCode::kClosed, "send failed");
  }
  return Status::ok();
}

bool TcpConnection::flush_locked() {
  while (!send_queue_.empty()) {
    iovec iov[kMaxIov];
    std::size_t iov_count = 0;
    std::size_t offset = send_head_offset_;
    for (const auto& buf : send_queue_) {
      if (iov_count == kMaxIov) break;
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(buf.data()) + offset;
      iov[iov_count].iov_len = buf.size() - offset;
      offset = 0;
      ++iov_count;
    }
    // sendmsg rather than writev: close() may shut the socket down while a
    // sender is past its closed_ check, and only MSG_NOSIGNAL keeps that
    // write from raising SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    ssize_t n;
    do {
      n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // EPIPE / ECONNRESET / ...
    }
    // Pop fully-written frames; remember the partial head, if any.
    std::size_t written = static_cast<std::size_t>(n);
    std::size_t frames_done = 0;
    while (written > 0 && !send_queue_.empty()) {
      const std::size_t head_left =
          send_queue_.front().size() - send_head_offset_;
      if (written >= head_left) {
        written -= head_left;
        send_queue_bytes_ -= send_queue_.front().size();
        send_queue_.pop_front();
        send_head_offset_ = 0;
        ++frames_done;
      } else {
        send_head_offset_ += written;
        written = 0;
      }
    }
    obs::hooks::tcp_batch_written(frames_done, static_cast<std::size_t>(n));
  }
  return true;
}

void TcpConnection::update_write_interest_locked() {
  const bool want_write = !send_queue_.empty();
  if (want_write == write_armed_) return;
  if (!started_.load(std::memory_order_acquire) ||
      dead_.load(std::memory_order_acquire)) {
    return;
  }
  write_armed_ = want_write;
  (void)loop_->modify(fd_, EPOLLIN | (want_write ? EPOLLOUT : 0u));
}

void TcpConnection::on_events(std::uint32_t events) {
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
    drain_readable();
    if (dead_.load(std::memory_order_acquire)) return;
  }
  if (events & EPOLLOUT) {
    bool fatal = false;
    {
      std::lock_guard lock(send_mutex_);
      if (!flush_locked()) {
        fatal = true;
      } else {
        update_write_interest_locked();
        obs::hooks::tcp_send_queue_depth(send_queue_bytes_);
      }
    }
    if (fatal) fail(Status(StatusCode::kClosed, "send failed"));
  }
}

void TcpConnection::drain_readable() {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      rx_buf_.insert(rx_buf_.end(), chunk, chunk + n);
      obs::hooks::tcp_bytes_received(static_cast<std::size_t>(n));
      // Parse every complete frame accumulated so far; partial frames stay
      // buffered until the next readiness event.
      while (rx_buf_.size() - rx_parsed_ >= 4) {
        std::uint32_t size = 0;
        for (int i = 0; i < 4; ++i) {
          size |= static_cast<std::uint32_t>(rx_buf_[rx_parsed_ + i])
                  << (8 * i);
        }
        if (size > kMaxFrame) {
          FRAME_LOG_ERROR(
              "TcpConnection: protocol violation: frame of %u bytes "
              "exceeds the %u-byte limit; closing",
              size, kMaxFrame);
          obs::hooks::tcp_protocol_error();
          fail(Status(StatusCode::kProtocolError,
                      "oversized frame: " + std::to_string(size) +
                          " bytes (limit " + std::to_string(kMaxFrame) +
                          ")"));
          return;
        }
        if (rx_buf_.size() - rx_parsed_ < 4 + static_cast<std::size_t>(size)) {
          break;
        }
        std::vector<std::uint8_t> frame(
            rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_parsed_ + 4),
            rx_buf_.begin() +
                static_cast<std::ptrdiff_t>(rx_parsed_ + 4 + size));
        rx_parsed_ += 4 + size;
        obs::hooks::tcp_frame_received(4 + static_cast<std::size_t>(size));
        if (on_frame_) on_frame_(std::move(frame));
        if (dead_.load(std::memory_order_acquire)) return;
      }
      if (rx_parsed_ > 0 && (rx_parsed_ >= rx_buf_.size() ||
                             rx_parsed_ > (64u * 1024u))) {
        rx_buf_.erase(rx_buf_.begin(),
                      rx_buf_.begin() + static_cast<std::ptrdiff_t>(rx_parsed_));
        rx_parsed_ = 0;
      }
      continue;
    }
    if (n == 0) {
      fail(Status(StatusCode::kClosed, "closed by peer"));
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    fail(Status(StatusCode::kClosed,
                "recv failed: " + std::string(std::strerror(errno))));
    return;
  }
}

void TcpConnection::fail(const Status& reason) { deregister_and_close(reason); }

void TcpConnection::deregister_and_close(const Status& reason) {
  if (dead_.exchange(true, std::memory_order_acq_rel)) return;
  closed_.store(true, std::memory_order_release);
  loop_->remove_sync(fd_);
  ::shutdown(fd_, SHUT_RDWR);
  // The fd itself is closed in the destructor, after the final
  // remove_sync, so a recycled descriptor can never alias a live
  // registration.
  if (on_close_) on_close_(reason);
}

void TcpConnection::close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    // Wake the reactor via EOF/HUP; it deregisters and fires on_close.
    ::shutdown(fd_, SHUT_RDWR);
  }
}

std::size_t TcpConnection::send_queue_bytes() const {
  std::lock_guard lock(send_mutex_);
  return send_queue_bytes_;
}

void TcpConnection::set_send_queue_limit(std::size_t bytes) {
  std::lock_guard lock(send_mutex_);
  send_queue_limit_ = bytes;
}

// ------------------------------------------------------------------ listener

TcpListener::~TcpListener() { close(); }

Result<std::unique_ptr<TcpListener>> TcpListener::listen(
    std::uint16_t port, AcceptHandler on_accept, EpollLoop* loop) {
  if (loop == nullptr) loop = &EpollLoop::default_loop();
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status(StatusCode::kUnavailable, "socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  "bind() failed: " + std::string(std::strerror(errno)));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status(StatusCode::kUnavailable, "listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  auto listener = std::unique_ptr<TcpListener>(new TcpListener());
  listener->fd_ = fd;
  listener->port_ = ntohs(addr.sin_port);
  listener->loop_ = loop;
  listener->on_accept_ = std::move(on_accept);
  const Status status = loop->add(
      fd, EPOLLIN,
      [raw = listener.get()](std::uint32_t ev) { raw->on_events(ev); });
  if (!status.is_ok()) {
    ::close(fd);
    listener->fd_ = -1;
    listener->closed_.store(true, std::memory_order_release);
    return status;
  }
  return listener;
}

void TcpListener::on_events(std::uint32_t) {
  for (;;) {
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (client < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (closed_.load(std::memory_order_acquire)) return;
      FRAME_LOG_WARN("TcpListener: accept failed: %s", std::strerror(errno));
      return;
    }
    set_nodelay(client);
    if (on_accept_) {
      on_accept_(
          std::unique_ptr<TcpConnection>(new TcpConnection(client, loop_)));
    } else {
      ::close(client);
    }
  }
}

void TcpListener::close() {
  bool expected = false;
  if (closed_.compare_exchange_strong(expected, true)) {
    if (fd_ >= 0) {
      loop_->remove_sync(fd_);
      ::close(fd_);
    }
  }
}

}  // namespace frame
