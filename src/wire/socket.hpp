// Thin RAII socket layer for the wire transport: Unix-domain sockets by
// default, TCP loopback behind a flag, framed blocking I/O with poll-based
// deadlines.  Everything here is plain POSIX; no third-party dependency.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace lotec::wire {

/// Connection-level failure (peer died, timeout, refused).  The transport
/// maps these onto NodeUnreachable so the existing retry machinery applies.
class SocketError : public Error {
 public:
  using Error::Error;
};

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.release()) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

using Millis = std::chrono::milliseconds;

/// Monotonic deadline helper.
[[nodiscard]] std::chrono::steady_clock::time_point deadline_after(Millis d);
[[nodiscard]] int millis_until(std::chrono::steady_clock::time_point deadline);

/// Bind + listen on a Unix-domain socket at `path` (unlinked first).
[[nodiscard]] Fd uds_listen(const std::string& path, int backlog);
/// Bind + listen on 127.0.0.1 with an ephemeral port; returns {fd, port}.
[[nodiscard]] std::pair<Fd, std::uint16_t> tcp_listen(int backlog);

/// Connect, retrying until the deadline (covers listener startup races).
[[nodiscard]] Fd uds_connect(const std::string& path, Millis timeout);
[[nodiscard]] Fd tcp_connect(std::uint16_t port, Millis timeout);

/// Accept one pending connection (throws SocketError on failure).
[[nodiscard]] Fd accept_one(const Fd& listener);

/// Write all of `data` (restarting on EINTR / short writes).  Throws
/// SocketError when the peer is gone.
void write_full(const Fd& fd, std::span<const std::byte> data);

/// Read exactly `out.size()` bytes, polling with `deadline`.  Throws
/// SocketError on EOF, error, or deadline expiry.
void read_full(const Fd& fd, std::span<std::byte> out,
               std::chrono::steady_clock::time_point deadline);

/// Append to `buf` the bytes ready on `fd` (at least one), waiting until
/// `deadline` only when none are: one recv when data is already there.
/// Throws SocketError on EOF, error, or deadline expiry.
void read_available(const Fd& fd, std::vector<std::byte>& buf,
                    std::chrono::steady_clock::time_point deadline);

/// Wait until `fd` is readable or the timeout elapses.  Returns false on
/// timeout; throws SocketError on poll failure or hangup without data.
bool wait_readable(const Fd& fd, int timeout_ms);

}  // namespace lotec::wire
