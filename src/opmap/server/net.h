#ifndef OPMAP_SERVER_NET_H_
#define OPMAP_SERVER_NET_H_

#include <cstdint>
#include <string>

#include "opmap/common/status.h"

namespace opmap::server {

/// A parsed listen/connect address: either an AF_UNIX path ("unix:<path>")
/// or TCP ("<host>:<port>", ":<port>"; host defaults to 127.0.0.1 — the
/// daemon is a local serving tier, not an internet-facing endpoint).
struct Address {
  bool is_unix = false;
  std::string path;           // unix
  std::string host = "127.0.0.1";  // tcp
  int port = 0;               // tcp; 0 = OS-assigned on listen
};

Result<Address> ParseAddress(const std::string& text);

/// Binds and listens on `address`; returns the fd (non-blocking,
/// close-on-exec). `bound` receives the actual address in listen-option
/// syntax (resolving port 0). Unix sockets unlink a stale path first.
/// The daemon opens exactly one listener, whatever its loop count: loop 0
/// accepts and hands connections to the other loops (docs/SERVING.md).
Result<int> ListenOn(const Address& address, std::string* bound);

/// The uid of the peer of a connected AF_UNIX socket, via SO_PEERCRED
/// (Linux) or getpeereid (BSDs). Basis of the daemon's --allow-uid check.
Result<uint32_t> PeerUid(int fd);

/// Connects a blocking socket to `address` (TCP_NODELAY for TCP).
Result<int> ConnectTo(const Address& address);

/// Sets/clears O_NONBLOCK.
Status SetNonBlocking(int fd, bool non_blocking);

}  // namespace opmap::server

#endif  // OPMAP_SERVER_NET_H_
