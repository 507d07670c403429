#pragma once

// Thin POSIX socket layer for the network front end: endpoint parsing
// (TCP host:port and Unix-domain paths), an RAII fd wrapper, and the
// blocking connect / listen / accept helpers the Server reactor and Client
// build on.  It is the one owner of socket options: both ends of a TCP
// connection get TCP_NODELAY here.  Frames are small and request/response
// shaped, so Nagle would hold a second small write until the peer's
// delayed ACK (~40 ms on Linux) — a stall per pipelined window.
//
// Error reporting is by out-parameter message + invalid Socket, never by
// exception — the callers (daemon startup, client reconnect loops) treat
// connection failures as ordinary control flow.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace qross::net {

/// A parsed listen/connect address.
///
///   "unix:/path/to.sock"  Unix-domain stream socket
///   "tcp:host:port"       TCP (explicit)
///   "host:port"           TCP (shorthand); port 0 binds an ephemeral port
struct Endpoint {
  enum class Kind { tcp, unix_domain };
  Kind kind = Kind::tcp;
  std::string host;     // tcp only
  std::uint16_t port = 0;  // tcp only
  std::string path;     // unix only

  static std::optional<Endpoint> parse(const std::string& text);
  std::string to_string() const;
};

/// RAII file descriptor.  Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }
  void close();

  /// Sends the whole buffer (retrying short writes and EINTR).  False on a
  /// broken connection.
  bool send_all(const void* data, std::size_t size) const;

  /// Receives up to `size` bytes.  Returns the count, 0 on orderly peer
  /// shutdown, -1 on error.  `timeout_ms < 0` blocks indefinitely; on
  /// timeout returns -2.
  long recv_some(void* data, std::size_t size, int timeout_ms = -1) const;

 private:
  int fd_ = -1;
};

/// Binds + listens on `endpoint`.  For TCP port 0 the kernel picks a port —
/// read it back via `local_endpoint`.  A pre-existing Unix socket file is
/// unlinked first (stale from a crashed daemon).  On failure returns an
/// invalid Socket and fills `*error`.
Socket listen_on(const Endpoint& endpoint, std::string* error);

/// Blocking connect with a timeout.  On failure returns an invalid Socket
/// and fills `*error`.
Socket connect_to(const Endpoint& endpoint, int timeout_ms,
                  std::string* error);

/// Accepts one pending connection on `listener` (retrying EINTR).  An
/// accepted TCP socket gets TCP_NODELAY, as connect_to's does.  The new
/// socket is blocking whatever the listener's mode.  Returns an invalid
/// Socket, with errno set, when nothing is pending (EAGAIN on a
/// non-blocking listener) or on error.
Socket accept_from(const Socket& listener);

/// The locally bound address of a listening/connected socket (resolves an
/// ephemeral TCP port).  Unix sockets return their path.
std::optional<Endpoint> local_endpoint(int fd);

}  // namespace qross::net
