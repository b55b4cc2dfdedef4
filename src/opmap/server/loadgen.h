#ifndef OPMAP_SERVER_LOADGEN_H_
#define OPMAP_SERVER_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "opmap/common/status.h"

namespace opmap::server {

/// Configuration of one `opmap loadgen` run: a closed loop, where each
/// client issues its next request when the previous response arrives.
struct LoadgenOptions {
  /// Daemon address in listen-option syntax ("unix:<path>", "host:port").
  std::string connect;
  /// Concurrent connections, each driven by its own thread and Client.
  int clients = 4;
  /// Wall-clock budget; the run stops at the deadline or after
  /// max_requests, whichever comes first.
  double duration_s = 5.0;
  /// Total request budget across all clients; 0 = duration only.
  int64_t max_requests = 0;
  /// Weighted op mix, "<op>:<weight>[,...]" over ops
  /// ping|compare|pairs|gi|render|stats|schema.
  std::string mix = "compare:8,pairs:1,gi:1,render:2";
  /// Seed for the deterministic per-thread schedules.
  uint64_t seed = 42;
  /// Per-call socket timeout.
  int timeout_ms = 30000;
  bool verbose = false;
};

/// Results of a run. Latencies are microseconds, sorted ascending per op.
struct LoadgenReport {
  int64_t total_ok = 0;
  int64_t total_error = 0;
  int64_t retry_later = 0;
  double wall_s = 0.0;
  double qps = 0.0;  ///< OK responses per second across all clients
  std::map<std::string, std::vector<int64_t>> latencies_us;
};

/// Runs the load against a live daemon. Fails fast if the first
/// connection or the schema probe fails; per-request errors are counted,
/// not fatal.
Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options);

/// Human-readable per-op table (QPS, p50/p99/p999) for the CLI.
std::string FormatLoadgenReport(const LoadgenOptions& options,
                                const LoadgenReport& report);

}  // namespace opmap::server

#endif  // OPMAP_SERVER_LOADGEN_H_
