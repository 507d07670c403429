#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace qross::net {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// sockaddr_un with the path length-checked (the kernel limit is ~107
/// bytes and silently truncating would bind the wrong path).
bool fill_unix_addr(const std::string& path, sockaddr_un* addr,
                    std::string* error) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    if (error != nullptr) {
      *error = "unix socket path empty or longer than " +
               std::to_string(sizeof(addr->sun_path) - 1) + " bytes: " + path;
    }
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

bool fill_tcp_addr(const std::string& host, std::uint16_t port,
                   sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string node = host.empty() ? "0.0.0.0" : host;
  if (inet_pton(AF_INET, node.c_str(), &addr->sin_addr) != 1) {
    if (node == "localhost") {
      inet_pton(AF_INET, "127.0.0.1", &addr->sin_addr);
      return true;
    }
    if (error != nullptr) *error = "cannot parse IPv4 address: " + node;
    return false;
  }
  return true;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::optional<Endpoint> Endpoint::parse(const std::string& text) {
  Endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.kind = Kind::unix_domain;
    ep.path = text.substr(5);
    if (ep.path.empty()) return std::nullopt;
    return ep;
  }
  std::string rest = text;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos || colon + 1 >= rest.size()) {
    return std::nullopt;
  }
  ep.kind = Kind::tcp;
  ep.host = rest.substr(0, colon);
  unsigned long port = 0;
  try {
    port = std::stoul(rest.substr(colon + 1));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (port > 65535) return std::nullopt;
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::string Endpoint::to_string() const {
  if (kind == Kind::unix_domain) return "unix:" + path;
  return "tcp:" + (host.empty() ? "0.0.0.0" : host) + ":" +
         std::to_string(port);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(const void* data, std::size_t size) const {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

long Socket::recv_some(void* data, std::size_t size, int timeout_ms) const {
  if (timeout_ms >= 0) {
    pollfd pfd{fd_, POLLIN, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) return -2;
    if (rc < 0) return -1;
  }
  ssize_t n;
  do {
    n = ::recv(fd_, data, size, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

Socket listen_on(const Endpoint& endpoint, std::string* error) {
  const int family =
      endpoint.kind == Endpoint::Kind::unix_domain ? AF_UNIX : AF_INET;
  Socket sock(::socket(family, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = errno_message("socket");
    return {};
  }
  if (endpoint.kind == Endpoint::Kind::unix_domain) {
    sockaddr_un addr;
    if (!fill_unix_addr(endpoint.path, &addr, error)) return {};
    ::unlink(endpoint.path.c_str());  // stale file from a crashed daemon
    if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = errno_message(("bind " + endpoint.path).c_str());
      }
      return {};
    }
  } else {
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    if (!fill_tcp_addr(endpoint.host, endpoint.port, &addr, error)) return {};
    if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error != nullptr) {
        *error = errno_message(("bind " + endpoint.to_string()).c_str());
      }
      return {};
    }
  }
  if (::listen(sock.fd(), 64) != 0) {
    if (error != nullptr) *error = errno_message("listen");
    return {};
  }
  return sock;
}

Socket connect_to(const Endpoint& endpoint, int timeout_ms,
                  std::string* error) {
  const int family =
      endpoint.kind == Endpoint::Kind::unix_domain ? AF_UNIX : AF_INET;
  Socket sock(::socket(family, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = errno_message("socket");
    return {};
  }
  sockaddr_un uaddr;
  sockaddr_in taddr;
  sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  if (endpoint.kind == Endpoint::Kind::unix_domain) {
    if (!fill_unix_addr(endpoint.path, &uaddr, error)) return {};
    addr = reinterpret_cast<sockaddr*>(&uaddr);
    addr_len = sizeof(uaddr);
  } else {
    if (!fill_tcp_addr(endpoint.host.empty() ? "127.0.0.1" : endpoint.host,
                       endpoint.port, &taddr, error)) {
      return {};
    }
    addr = reinterpret_cast<sockaddr*>(&taddr);
    addr_len = sizeof(taddr);
  }
  // Non-blocking connect + poll gives the timeout; the socket is switched
  // back to blocking afterwards (the client protocol is blocking).
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(sock.fd(), addr, addr_len);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{sock.fd(), POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms < 0 ? -1 : timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      if (error != nullptr) {
        *error = "connect " + endpoint.to_string() +
                 (rc == 0 ? ": timed out" : errno_message(""));
      }
      return {};
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      if (error != nullptr) {
        *error = "connect " + endpoint.to_string() + ": " +
                 std::strerror(so_error);
      }
      return {};
    }
  } else if (rc != 0) {
    if (error != nullptr) {
      *error = errno_message(("connect " + endpoint.to_string()).c_str());
    }
    return {};
  }
  ::fcntl(sock.fd(), F_SETFL, flags);
  if (endpoint.kind == Endpoint::Kind::tcp) set_nodelay(sock.fd());
  return sock;
}

Socket accept_from(const Socket& listener) {
  sockaddr_storage peer;
  socklen_t len = sizeof(peer);
  int fd;
  do {
    fd = ::accept(listener.fd(), reinterpret_cast<sockaddr*>(&peer), &len);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0 && peer.ss_family == AF_INET) set_nodelay(fd);
  return Socket(fd);
}

std::optional<Endpoint> local_endpoint(int fd) {
  sockaddr_storage storage;
  socklen_t len = sizeof(storage);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&storage), &len) != 0) {
    return std::nullopt;
  }
  Endpoint ep;
  if (storage.ss_family == AF_UNIX) {
    const auto* addr = reinterpret_cast<const sockaddr_un*>(&storage);
    ep.kind = Endpoint::Kind::unix_domain;
    ep.path = addr->sun_path;
    return ep;
  }
  if (storage.ss_family == AF_INET) {
    const auto* addr = reinterpret_cast<const sockaddr_in*>(&storage);
    ep.kind = Endpoint::Kind::tcp;
    char buf[INET_ADDRSTRLEN] = {};
    inet_ntop(AF_INET, &addr->sin_addr, buf, sizeof(buf));
    ep.host = buf;
    ep.port = ntohs(addr->sin_port);
    return ep;
  }
  return std::nullopt;
}

}  // namespace qross::net
