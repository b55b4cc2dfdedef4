#ifndef OPMAP_SERVER_SERVER_H_
#define OPMAP_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "opmap/common/parallel.h"
#include "opmap/common/status.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/server/protocol.h"

namespace opmap::server {

/// Configuration of one opmapd instance.
struct ServerOptions {
  /// Listen address: "unix:<path>" for an AF_UNIX socket, "<host>:<port>"
  /// or ":<port>" for TCP (host defaults to 127.0.0.1; port 0 binds an
  /// OS-assigned port, reported by Server::address()).
  std::string listen = "unix:opmapd.sock";
  /// The cube container file to serve (and the default Reload target).
  std::string cubes_path;
  /// Map v3 containers instead of loading eagerly (see docs/SERVING.md:
  /// N daemons or sessions share one physical copy of the cubes).
  bool use_mmap = true;
  /// Shared result-cache budget; 0 disables caching.
  int64_t cache_bytes = QueryCache::kDefaultMaxBytes;
  /// Threading for query execution inside one request.
  ParallelOptions parallel;
  /// Thread-pool workers reserved for request execution; 0 = the
  /// effective thread count of `parallel`.
  int workers = 0;
  /// Event loops (poll threads). 0 = hardware_concurrency clamped to
  /// [1, 8]; explicit values are clamped to [1, 64]. Whatever the
  /// transport, there is one listener: loop 0 accepts and hands sockets to
  /// the loops round-robin. Connections stay loop-affine for their whole
  /// life.
  int loops = 0;
  /// Unix-socket peer-credential allow list (SO_PEERCRED / getpeereid):
  /// when non-empty, a connection whose peer uid is not listed is
  /// answered with one BAD_REQUEST frame and closed (counted in the
  /// server.auth_rejected metric). Start() rejects the combination with a
  /// TCP listen address — TCP carries no peer credentials.
  std::vector<uint32_t> allow_uids;
  /// Admission control: requests executing or queued for execution beyond
  /// this bound (across all loops) are shed with RETRY_LATER instead of
  /// queued unboundedly.
  int max_inflight = 64;
  /// Per-connection pipelining depth: bounds both the stateless requests
  /// of one connection executing concurrently and its
  /// parsed-but-undispatched frame queue (a client pipelining past the
  /// sum of the two gets RETRY_LATER).
  int max_pending_per_connection = 32;
  int max_connections = 256;
  /// Request frames with a longer declared payload are treated as corrupt.
  uint32_t max_request_bytes = kMaxRequestBytes;
  /// Print per-event progress to stderr.
  bool verbose = false;
};

/// Counters of one server's lifetime, readable after Serve() returns
/// (tests) — the live view is the server.* metrics in the global registry.
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t requests = 0;
  int64_t responses_ok = 0;
  int64_t responses_error = 0;
  int64_t shed_retry_later = 0;
  int64_t protocol_errors = 0;
  int64_t reloads = 0;
  int64_t reload_failures = 0;
  int64_t auth_rejected = 0;
};

class EventLoop;    // defined in server.cc
class Connection;   // defined in server.cc
struct Snapshot;    // defined in server.cc

/// The opmapd daemon: N poll(2) event loops, each owning a disjoint set
/// of sockets, with request execution dispatched onto the shared
/// ThreadPool. Stateless ops (compare/all-pairs/gi/schema/ping/stats) of
/// one connection pipeline: up to max_pending_per_connection of them
/// execute concurrently, and a per-connection reordering buffer emits the
/// responses in request order. Session-bound ops (session/render) and
/// reload run one at a time on a quiesced connection, so each
/// connection's ExplorationSession needs no lock and a client's next
/// request sees its own reload. Every request pins the store snapshot
/// current at its dispatch; a reload publishes a new snapshot without
/// waiting for, or holding up, other connections' requests.
///
/// Thread model: Serve() runs loop 0 on the calling thread and spawns the
/// remaining loops. Shutdown() may be called from any thread or from a
/// signal handler; it makes every loop stop accepting, answer
/// undispatched frames with SHUTTING_DOWN, finish in-flight requests,
/// flush, and return. Destroy the Server only after Serve() returned.
class Server {
 public:
  /// Loads the store, binds the listen socket and reserves pool
  /// workers. The server is not serving until Serve() is called.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options);

  ~Server();

  /// The bound address in listen-option syntax ("unix:/tmp/x.sock",
  /// "127.0.0.1:45123") — connectable even when the option said port 0.
  const std::string& address() const { return address_; }

  /// The number of event loops actually running (after clamping).
  int loops() const { return static_cast<int>(loops_.size()); }

  /// Runs the event loops until Shutdown(); drains before returning.
  Status Serve();

  /// Requests a graceful drain. Async-signal-safe (an atomic store plus a
  /// write(2) to each loop's wake pipe).
  void Shutdown();

  /// Routes SIGINT/SIGTERM to server->Shutdown() for the lifetime of the
  /// process (the CLI's `opmap serve` calls this; tests use Shutdown()
  /// directly). Pass nullptr to detach.
  static void InstallSignalHandlers(Server* server);

  /// Lifetime counters summed over all loops; read after Serve() returned.
  ServerStats stats() const;

 private:
  friend class EventLoop;

  Server() = default;

  // The snapshot a request dispatched now pins.
  std::shared_ptr<const Snapshot> CurrentSnapshot() const;

  // Pool-worker side: executes one request against the snapshot pinned at
  // its dispatch, unpins it, and posts the encoded response frame to the
  // owning loop's completion queue.
  void ExecuteRequest(EventLoop* loop, Connection* conn,
                      std::shared_ptr<const Snapshot> snapshot, uint64_t seq,
                      bool serial, uint64_t request_id, std::string payload);
  void EnsureSession(Connection* conn, const Snapshot& snapshot);
  std::string HandleRequestPayload(Connection* conn, const Snapshot& snapshot,
                                   const std::string& payload);
  // Loads the requested container and publishes it as the next
  // generation. A failed load answers an error and changes nothing.
  std::string Reload(const std::string& body);

  ServerOptions options_;
  std::string address_;
  std::string unix_path_;  // non-empty: unlink on exit
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<bool> shutdown_requested_{false};

  // The published store. Each request runs wholly on the snapshot it
  // copied at dispatch; a reload swaps in a new one, and the old one dies
  // with the last request that pinned it.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;

  // Serializes reloads, so each publishes exactly generation + 1; also
  // guards the reload counters.
  mutable std::mutex reload_mu_;
  int64_t reloads_ = 0;
  int64_t reload_failures_ = 0;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<int> total_connections_{0};

  // Requests dispatched to the pool and not yet completed, across all
  // loops. Admission control bounds it by options_.max_inflight.
  std::atomic<int> inflight_{0};
};

}  // namespace opmap::server

#endif  // OPMAP_SERVER_SERVER_H_
