#include "opmap/server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace opmap::server {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Result<int> NewSocket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  return fd;
}

// Binds/parses only numeric IPv4 literals: the serving tier is reached by
// loopback or explicit address, never by resolving names (keeps the net
// layer free of getaddrinfo and its blocking lookups).
Result<in_addr> ParseIPv4(const std::string& host) {
  in_addr addr{};
  if (::inet_pton(AF_INET, host.c_str(), &addr) != 1) {
    return Status::InvalidArgument("invalid IPv4 address '" + host +
                                   "' (numeric addresses only)");
  }
  return addr;
}

}  // namespace

Result<Address> ParseAddress(const std::string& text) {
  Address addr;
  if (text.rfind("unix:", 0) == 0) {
    addr.is_unix = true;
    addr.path = text.substr(5);
    if (addr.path.empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + text +
                                     "'");
    }
    sockaddr_un probe{};
    if (addr.path.size() >= sizeof(probe.sun_path)) {
      return Status::InvalidArgument("unix socket path too long (" +
                                     std::to_string(addr.path.size()) +
                                     " bytes): " + addr.path);
    }
    return addr;
  }
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "invalid address '" + text +
        "' (expected unix:<path>, <host>:<port> or :<port>)");
  }
  if (colon > 0) addr.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty()) {
    return Status::InvalidArgument("missing port in address '" + text + "'");
  }
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid port '" + port_text + "'");
    }
  }
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port out of range: " + port_text);
  }
  addr.port = static_cast<int>(port);
  OPMAP_RETURN_NOT_OK(ParseIPv4(addr.host).status());
  return addr;
}

Result<int> ListenOn(const Address& address, std::string* bound) {
  int fd = -1;
  if (address.is_unix) {
    OPMAP_ASSIGN_OR_RETURN(fd, NewSocket(AF_UNIX));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    // A previous daemon's socket file would make bind fail; it is dead
    // weight by definition (connect to a live one fails loudly instead).
    ::unlink(address.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Status st = Errno("bind " + address.path);
      ::close(fd);
      return st;
    }
    *bound = "unix:" + address.path;
  } else {
    OPMAP_ASSIGN_OR_RETURN(fd, NewSocket(AF_INET));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(address.port));
    OPMAP_ASSIGN_OR_RETURN(sa.sin_addr, ParseIPv4(address.host));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Status st = Errno("bind " + address.host + ":" +
                        std::to_string(address.port));
      ::close(fd);
      return st;
    }
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      Status st = Errno("getsockname");
      ::close(fd);
      return st;
    }
    *bound = address.host + ":" + std::to_string(ntohs(actual.sin_port));
  }
  if (::listen(fd, 128) != 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  OPMAP_RETURN_NOT_OK(SetNonBlocking(fd, true));
  return fd;
}

Result<int> ConnectTo(const Address& address) {
  int fd = -1;
  if (address.is_unix) {
    OPMAP_ASSIGN_OR_RETURN(fd, NewSocket(AF_UNIX));
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Status st = Errno("connect " + address.path);
      ::close(fd);
      return st;
    }
  } else {
    OPMAP_ASSIGN_OR_RETURN(fd, NewSocket(AF_INET));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(address.port));
    OPMAP_ASSIGN_OR_RETURN(sa.sin_addr, ParseIPv4(address.host));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      Status st = Errno("connect " + address.host + ":" +
                        std::to_string(address.port));
      ::close(fd);
      return st;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Result<uint32_t> PeerUid(int fd) {
#if defined(__linux__)
  ucred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0) {
    return Errno("getsockopt SO_PEERCRED");
  }
  return static_cast<uint32_t>(cred.uid);
#elif defined(__APPLE__) || defined(__FreeBSD__) || defined(__OpenBSD__) || \
    defined(__NetBSD__)
  uid_t uid = 0;
  gid_t gid = 0;
  if (::getpeereid(fd, &uid, &gid) != 0) return Errno("getpeereid");
  return static_cast<uint32_t>(uid);
#else
  (void)fd;
  return Status::FailedPrecondition(
      "peer credentials are not available on this platform");
#endif
}

Status SetNonBlocking(int fd, bool non_blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl F_GETFL");
  const int want = non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) return Errno("fcntl F_SETFL");
  return Status::OK();
}

}  // namespace opmap::server
