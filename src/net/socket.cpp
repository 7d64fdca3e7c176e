#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/text_codec.hpp"

namespace erel::net {

Socket::~Socket() { close_fd(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    decoder_ = std::move(other.decoder_);
    other.fd_ = -1;
  }
  return *this;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

timeval ms_to_timeval(unsigned ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  return tv;
}

/// Milliseconds left until `deadline` on the steady clock, clamped at 0.
int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1'000'000'000) return 1'000'000'000;
  return static_cast<int>(left.count());
}

}  // namespace

bool Socket::set_recv_timeout_ms(unsigned ms) {
  const timeval tv = ms_to_timeval(ms);
  return fd_ >= 0 &&
         ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0;
}

bool Socket::set_send_timeout_ms(unsigned ms) {
  const timeval tv = ms_to_timeval(ms);
  return fd_ >= 0 &&
         ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) == 0;
}

Socket::IoStatus Socket::recv_some(std::string& out, int timeout_ms) {
  if (fd_ < 0) return IoStatus::kError;
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (rc == 0) return IoStatus::kTimeout;
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (n == 0) return IoStatus::kEof;
    out.append(chunk, static_cast<std::size_t>(n));
    return IoStatus::kOk;
  }
}

bool Socket::send_all(std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t remaining = bytes.size();
  while (remaining > 0) {
    const ssize_t n = ::send(fd_, p, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Frame> Socket::recv_frame(bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  Frame frame;
  for (;;) {
    switch (decoder_.next(frame)) {
      case FrameDecoder::Status::kFrame:
        return frame;
      case FrameDecoder::Status::kError:
        return std::nullopt;
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) {  // EOF
      if (clean_eof != nullptr) *clean_eof = !decoder_.mid_frame();
      return std::nullopt;
    }
    decoder_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
}

Socket::RecvStatus Socket::recv_frame_deadline(Frame& out, int timeout_ms,
                                               bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    switch (decoder_.next(out)) {
      case FrameDecoder::Status::kFrame:
        return RecvStatus::kFrame;
      case FrameDecoder::Status::kError:
        return RecvStatus::kError;
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    std::string chunk;
    switch (recv_some(chunk, remaining_ms(deadline))) {
      case IoStatus::kOk:
        decoder_.feed(chunk);
        break;
      case IoStatus::kTimeout:
        return RecvStatus::kTimeout;
      case IoStatus::kEof:
        if (clean_eof != nullptr) *clean_eof = !decoder_.mid_frame();
        return RecvStatus::kEof;
      case IoStatus::kError:
        return RecvStatus::kError;
    }
  }
}

bool Socket::send_frame(const Frame& frame) {
  return send_all(encode_frame(frame));
}

std::optional<std::pair<std::string, std::uint16_t>> parse_endpoint(
    std::string_view spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size())
    return std::nullopt;
  const std::optional<std::uint16_t> port =
      codec::parse_unsigned<std::uint16_t>(spec.substr(colon + 1));
  if (!port || *port == 0) return std::nullopt;
  return std::make_pair(std::string(spec.substr(0, colon)), *port);
}

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// connect() with an upper bound: non-blocking connect, poll for
/// writability, then read SO_ERROR for the real outcome. Restores the
/// original fd flags on success. Returns 0 or an errno value.
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t addr_len,
                         int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return errno;
  if (::connect(fd, addr, addr_len) == 0) {
    ::fcntl(fd, F_SETFL, flags);
    return 0;
  }
  if (errno != EINPROGRESS) return errno;
  pollfd pfd{fd, POLLOUT, 0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (rc == 0) return ETIMEDOUT;
    break;
  }
  int so_error = 0;
  socklen_t len = sizeof so_error;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0)
    return errno;
  if (so_error != 0) return so_error;
  ::fcntl(fd, F_SETFL, flags);
  return 0;
}

}  // namespace

Socket connect_to(const std::string& host, std::uint16_t port,
                  std::string* error, int timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
      rc != 0) {
    if (error != nullptr) *error = ::gai_strerror(rc);
    return Socket{};
  }
  int fd = -1;
  std::string last_error = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (timeout_ms > 0) {
      const int err =
          connect_with_timeout(fd, ai->ai_addr, ai->ai_addrlen, timeout_ms);
      if (err == 0) break;
      last_error = std::strerror(err);
    } else {
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last_error = std::strerror(errno);
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    if (error != nullptr) *error = last_error;
    return Socket{};
  }
  set_nodelay(fd);
  return Socket{fd};
}

Listener::Listener(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                   service.c_str(), &hints, &res);
      rc != 0) {
    error_ = ::gai_strerror(rc);
    return;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error_ = std::strerror(errno);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, 64) == 0)
      break;
    error_ = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return;

  sockaddr_storage addr{};
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    if (addr.ss_family == AF_INET)
      port_ = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
    else if (addr.ss_family == AF_INET6)
      port_ = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  error_.clear();
  socket_ = Socket{fd};
}

Socket Listener::accept_client() {
  for (;;) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket{fd};
    }
    if (errno != EINTR) return Socket{};
  }
}

}  // namespace erel::net
