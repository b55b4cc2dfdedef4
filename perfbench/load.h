// Client-side load for the serving workloads: the request key space, the
// seeded open-loop (Poisson) and closed-loop generators over
// server::Client, the in-process oracle every served body is checked
// against, and the in-process replay that times the serving layers.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/gi/impressions.h"
#include "opmap/server/client.h"
#include "opmap/server/protocol.h"
#include "perfbench/harness.h"

namespace perfbench {

// One distinct request a client can send.
struct Key {
  enum class Kind { kCompare, kPairs, kGi, kRender };
  Kind kind = Kind::kCompare;
  opmap::server::CompareRequest compare;
  opmap::server::AllPairsRequest pairs;
  opmap::server::GiRequest gi;
};

// The comparator/GI options the daemon derives from a request body.
opmap::ComparisonSpec SpecOf(const opmap::server::CompareRequest& req);
opmap::GiOptions GiOptionsOf(const opmap::server::GiRequest& req);

// The keys of a workload and how often each is drawn: Zipf(s) over the
// key order when zipf_s > 0; else a group is drawn by weight and a key
// uniformly within it.
struct KeySpace {
  std::vector<Key> keys;
  double zipf_s = 0;
  std::vector<std::vector<size_t>> groups;
  std::vector<double> group_weights;
  // Attribute names a connection may open a view on (render keys).
  std::vector<std::string> view_attributes;
};

// Every (attribute, ordered value pair, class) compare and every
// (attribute, class) all-pairs sweep over `store`'s attributes.
std::vector<Key> CompareKeys(const opmap::CubeStore& store);
std::vector<Key> PairsKeys(const opmap::CubeStore& store);

struct LoadResult {
  std::vector<double> latency_us;  // OK requests, from the scheduled send
  std::vector<double> due_us;      // each OK request's scheduled send
  std::vector<double> lag_us;      // generator wake-up lag (idle sends)
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;       // error, timeout or shed after every retry
  int64_t shed = 0;         // RETRY_LATER replies, retried or not
  double wall_s = 0;
  // Sampled (key, body digest) pairs, checked against the oracle.
  std::vector<std::pair<size_t, uint64_t>> samples;
  // Key indices in issue order, thread by thread (for the replay).
  std::vector<size_t> sequence;
};

struct LoadSpec {
  std::string address;
  int connections = 4;
  double rate_qps = 0;    // open loop when > 0, else closed loop
  double duration_s = 1;
  uint64_t seed = 1;
  uint64_t stream = 0;    // distinct streams give independent schedules
  double sample_share = 0;  // share of requests whose body is sampled
};

LoadResult RunLoad(const LoadSpec& spec, const KeySpace& space);

// The latencies ordered by scheduled send, for WindowedPercentile.
std::vector<double> LatenciesInSendOrder(const LoadResult& result);

// Requests per tail window: p99 then has ten samples beyond it.
inline constexpr size_t kTailWindow = 1000;

// Adds `from`'s counts, samples and sequence to `into`; its latencies and
// lags too when `latencies` (a closed-loop burst's are not at a fixed rate).
void Merge(const LoadResult& from, LoadResult* into, bool latencies);

// Body the daemon must send for `key` over `store`, computed in process
// with the public comparator/GI functions and protocol encoders. Render
// keys have no oracle (empty string).
std::string OracleBody(const opmap::CubeStore& store, const Key& key);

// Checks sampled digests against the oracle; returns the mismatches.
int64_t CheckSamples(const opmap::CubeStore& store, const KeySpace& space,
                     const std::vector<std::pair<size_t, uint64_t>>& samples);

// Sends every key in `keys` once over a fresh connection and checks the
// bodies against the oracle; returns the mismatches (failures count too).
int64_t VerifyServed(const std::string& address, const opmap::CubeStore& store,
                     const KeySpace& space, const std::vector<size_t>& keys);

// The analyst's report fetched from the daemon: GI with interactions,
// then an all-pairs sweep over every attribute. Returns wall seconds;
// adds the requests to `attempted`/`failed`.
double FetchReport(const std::string& address, const opmap::CubeStore& store,
                   int64_t* attempted, int64_t* failed);

// RELOAD of `path` (empty: the served file), retrying while another
// reload is pending. True on an OK reply.
bool Reload(opmap::server::Client* client, const std::string& path);

// The daemon's flat metrics JSON (`stats` op); empty on failure.
std::string FetchStats(const std::string& address);

// Seconds to access every cube of a freshly mapped store once (each
// first access CRC-verifies the cube's payload).
double TouchEveryCube(const opmap::CubeStore& store);

// In-process replay of a request sequence over `store` (mapped load of the
// served container), for the traced run's serving-layer metrics.
struct ReplayResult {
  std::vector<double> engine_us;   // QueryEngine with the daemon's cache size
  std::vector<double> codec_us;    // result encode + frame encode/decode
  std::vector<double> spec_us;     // uncached Comparator::Compare
  std::vector<double> all_pairs_us;  // uncached Comparator::CompareAllPairs
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int64_t cache_evictions = 0;
};
ReplayResult Replay(const opmap::CubeStore& store, const KeySpace& space,
                    const std::vector<size_t>& sequence, size_t max_requests);

// Fills the serving-layer per-layer metrics shared by serve_* and
// ingest_live from a replay, the client's open-loop result and the
// daemon's stats reply.
void SetServingLayers(const ReplayResult& replay, const LoadResult& open_loop,
                      const std::string& stats_json, Sheet* sheet);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
