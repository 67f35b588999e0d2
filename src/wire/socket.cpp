#include "wire/socket.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <functional>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace lotec::wire {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

Fd make_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  return Fd(fd);
}

sockaddr_un uds_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw SocketError("unix socket path too long (" +
                      std::to_string(path.size()) + " bytes): " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

Fd connect_retry(const std::function<Fd()>& attempt, Millis timeout,
                 const std::string& what) {
  const auto deadline = deadline_after(timeout);
  Millis backoff(1);
  for (;;) {
    try {
      return attempt();
    } catch (const SocketError&) {
      if (std::chrono::steady_clock::now() + backoff >= deadline) throw;
      ::poll(nullptr, 0, static_cast<int>(backoff.count()));  // sleep
      backoff = std::min(backoff * 2, Millis(50));
    }
  }
  throw SocketError("connect timeout: " + what);
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::chrono::steady_clock::time_point deadline_after(Millis d) {
  return std::chrono::steady_clock::now() + d;
}

int millis_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<Millis>(
      deadline - std::chrono::steady_clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

Fd uds_listen(const std::string& path, int backlog) {
  Fd fd = make_socket(AF_UNIX);
  const sockaddr_un addr = uds_addr(path);
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind " + path);
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen " + path);
  return fd;
}

std::pair<Fd, std::uint16_t> tcp_listen(int backlog) {
  Fd fd = make_socket(AF_INET);
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Accepted connections inherit this: acks written back-to-back must not
  // wait out Nagle behind the peer's delayed ACK.
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind tcp");
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen tcp");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  return {std::move(fd), ntohs(addr.sin_port)};
}

Fd uds_connect(const std::string& path, Millis timeout) {
  return connect_retry(
      [&] {
        Fd fd = make_socket(AF_UNIX);
        const sockaddr_un addr = uds_addr(path);
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0)
          throw_errno("connect " + path);
        return fd;
      },
      timeout, path);
}

Fd tcp_connect(std::uint16_t port, Millis timeout) {
  return connect_retry(
      [&] {
        Fd fd = make_socket(AF_INET);
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0)
          throw_errno("connect tcp :" + std::to_string(port));
        return fd;
      },
      timeout, "tcp :" + std::to_string(port));
}

Fd accept_one(const Fd& listener) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

void write_full(const Fd& fd, std::span<const std::byte> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd.get(), data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw_errno("send");
  }
}

void read_full(const Fd& fd, std::span<std::byte> out,
               std::chrono::steady_clock::time_point deadline) {
  std::size_t off = 0;
  while (off < out.size()) {
    if (!wait_readable(fd, millis_until(deadline)))
      throw SocketError("read timeout (" + std::to_string(off) + "/" +
                        std::to_string(out.size()) + " bytes)");
    const ssize_t n = ::recv(fd.get(), out.data() + off, out.size() - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) throw SocketError("connection closed by peer");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw_errno("recv");
  }
}

void read_available(const Fd& fd, std::vector<std::byte>& buf,
                    std::chrono::steady_clock::time_point deadline) {
  std::byte chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buf.insert(buf.end(), chunk, chunk + n);
      return;
    }
    if (n == 0) throw SocketError("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) throw_errno("recv");
    if (!wait_readable(fd, millis_until(deadline)))
      throw SocketError("read timeout");
  }
}

bool wait_readable(const Fd& fd, int timeout_ms) {
  pollfd p{fd.get(), POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) return true;
      return false;
    }
    if (r == 0) return false;
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

}  // namespace lotec::wire
