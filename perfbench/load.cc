#include "perfbench/load.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "opmap/core/session.h"

namespace perfbench {

using opmap::CubeStore;
using opmap::server::Client;
using opmap::server::Reply;
using opmap::server::RespStatus;

namespace {

constexpr int64_t kMinPopulation = 30;
constexpr int kMaxRetries = 50;
// The class of interest in the call log: dropped while in progress.
constexpr int32_t kTargetClass = 1;
// The daemon's default result-cache budget (`opmap serve`, 16 MB).
constexpr int64_t kDaemonCacheBytes = int64_t{16} << 20;

opmap::Result<Reply> Send(Client* client, const Key& key) {
  switch (key.kind) {
    case Key::Kind::kCompare:
      return client->Compare(key.compare);
    case Key::Kind::kPairs:
      return client->AllPairs(key.pairs);
    case Key::Kind::kGi:
      return client->Gi(key.gi);
    case Key::Kind::kRender:
      break;
  }
  return client->Render(opmap::server::RenderRequest{});
}

// Sends `key`, retrying RETRY_LATER after a short backoff. A transport
// error drops the connection (the caller reconnects).
bool Issue(std::unique_ptr<Client>* client, const Key& key, std::string* body,
           int64_t* shed) {
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    auto reply = Send(client->get(), key);
    if (!reply.ok()) {
      client->reset();
      return false;
    }
    if (reply->status == RespStatus::kRetryLater) {
      ++*shed;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (!reply->ok()) return false;
    *body = std::move(reply->body);
    return true;
  }
  return false;
}

// Connects and, when the key space renders, opens a view on a seeded
// attribute so render keys have a current cube.
std::unique_ptr<Client> Open(const LoadSpec& spec, const KeySpace& space,
                             Rng* rng) {
  auto client = Connect(spec.address);
  if (!client.ok()) return nullptr;
  if (!space.view_attributes.empty()) {
    opmap::server::SessionRequest open;
    open.verb = opmap::server::SessionVerb::kOpen;
    open.attribute =
        space.view_attributes[rng->Below(space.view_attributes.size())];
    auto reply = (*client)->Session(open);
    if (!reply.ok() || !reply->ok()) return nullptr;
  }
  return std::move(client).MoveValue();
}

size_t DrawGrouped(const KeySpace& space, Rng* rng) {
  double total = 0;
  for (double w : space.group_weights) total += w;
  double u = rng->Uniform() * total;
  for (size_t g = 0; g < space.groups.size(); ++g) {
    u -= space.group_weights[g];
    if (u < 0 || g + 1 == space.groups.size()) {
      const std::vector<size_t>& group = space.groups[g];
      return group[rng->Below(group.size())];
    }
  }
  return rng->Below(space.keys.size());
}

// Sleeps until `us` on the steady clock (NowUs() time base).
void SleepUntilUs(double us) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::micro>(us))));
}

void ClientThread(const LoadSpec& spec, const KeySpace& space,
                  const Zipf* zipf, int index, double start_us, double end_us,
                  LoadResult* out) {
  LoadResult& r = *out;
  Rng rng(spec.seed, spec.stream * 64 + static_cast<uint64_t>(index));
  std::unique_ptr<Client> client = Open(spec, space, &rng);
  const bool open_loop = spec.rate_qps > 0;
  const double mean_gap_us = open_loop ? 1e6 * spec.connections / spec.rate_qps
                                       : 0.0;
  double due_us = start_us;
  if (!open_loop) SleepUntilUs(start_us);
  for (;;) {
    if (open_loop) {
      // Poisson arrivals: the schedule depends only on (seed, stream,
      // thread), and latency counts from the scheduled send. Lag is how
      // late an idle generator woke for its send.
      due_us += rng.Exp(mean_gap_us);
      if (due_us >= end_us) break;
      if (NowUs() < due_us) {
        SleepUntilUs(due_us);
        r.lag_us.push_back(NowUs() - due_us);
      }
    } else {
      due_us = NowUs();
      if (due_us >= end_us) break;
    }
    const size_t k = zipf != nullptr ? zipf->Draw(&rng) : DrawGrouped(space, &rng);
    const bool sample = rng.Uniform() < spec.sample_share;
    r.sequence.push_back(k);
    ++r.attempted;
    if (client == nullptr) client = Open(spec, space, &rng);
    std::string body;
    if (client == nullptr || !Issue(&client, space.keys[k], &body, &r.shed)) {
      ++r.failed;
      continue;
    }
    ++r.ok;
    r.latency_us.push_back(NowUs() - due_us);
    r.due_us.push_back(due_us);
    if (sample) r.samples.emplace_back(k, Digest(body));
  }
}

}  // namespace

opmap::ComparisonSpec SpecOf(const opmap::server::CompareRequest& req) {
  opmap::ComparisonSpec spec;
  spec.attribute = req.attribute;
  spec.value_a = req.value_a;
  spec.value_b = req.value_b;
  spec.target_class = req.target_class;
  spec.min_population = req.min_population;
  return spec;
}

opmap::GiOptions GiOptionsOf(const opmap::server::GiRequest& req) {
  opmap::GiOptions options;
  options.top_influence = req.top_influence;
  options.mine_interactions = req.mine_interactions;
  options.top_interactions = req.top_interactions;
  return options;
}

bool Reload(Client* client, const std::string& path) {
  opmap::server::ReloadRequest req;
  req.path = path;
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    auto reply = client->Reload(req);
    if (!reply.ok()) return false;
    if (reply->status != RespStatus::kRetryLater) return reply->ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

std::string FetchStats(const std::string& address) {
  auto client = Connect(address);
  if (!client.ok()) return "";
  auto reply = (*client)->Stats();
  return reply.ok() && reply->ok() ? reply->body : "";
}

std::vector<Key> CompareKeys(const CubeStore& store) {
  std::vector<Key> keys;
  const opmap::Schema& schema = store.schema();
  const int classes = schema.num_classes();
  for (int attr : store.attributes()) {
    const opmap::RuleCube* cube = store.AttrCube(attr).value();
    const int m = schema.attribute(attr).domain();
    for (int c = 0; c < classes; ++c) {
      // Both sides need a population and target-class incidence, so every
      // key is a comparison the daemon answers OK.
      auto usable = [&](int v) {
        return cube->MarginCount({v, 0}, 1) >= kMinPopulation &&
               cube->count({v, c}) > 0;
      };
      for (int a = 0; a < m; ++a) {
        for (int b = 0; b < m; ++b) {
          if (a == b || !usable(a) || !usable(b)) continue;
          Key key;
          key.kind = Key::Kind::kCompare;
          key.compare.attribute = attr;
          key.compare.value_a = a;
          key.compare.value_b = b;
          key.compare.target_class = c;
          key.compare.min_population = kMinPopulation;
          keys.push_back(key);
        }
      }
    }
  }
  return keys;
}

std::vector<Key> PairsKeys(const CubeStore& store) {
  std::vector<Key> keys;
  for (int attr : store.attributes()) {
    for (int c = 0; c < store.schema().num_classes(); ++c) {
      Key key;
      key.kind = Key::Kind::kPairs;
      key.pairs.attribute = attr;
      key.pairs.target_class = c;
      key.pairs.min_population = kMinPopulation;
      keys.push_back(key);
    }
  }
  return keys;
}

LoadResult RunLoad(const LoadSpec& spec, const KeySpace& space) {
  std::unique_ptr<Zipf> zipf;
  if (space.zipf_s > 0) zipf = std::make_unique<Zipf>(space.keys.size(), space.zipf_s);
  std::vector<LoadResult> outs(static_cast<size_t>(spec.connections));
  // Threads connect before the common start instant.
  const double start_us = NowUs() + 50'000;
  const double end_us = start_us + spec.duration_s * 1e6;
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.connections; ++t) {
    threads.emplace_back(ClientThread, std::cref(spec), std::cref(space),
                         zipf.get(), t, start_us, end_us,
                         &outs[static_cast<size_t>(t)]);
  }
  for (std::thread& th : threads) th.join();
  LoadResult all;
  all.wall_s = (NowUs() - start_us) / 1e6;
  for (const LoadResult& out : outs) Merge(out, &all, /*latencies=*/true);
  return all;
}

std::vector<double> LatenciesInSendOrder(const LoadResult& result) {
  std::vector<size_t> order(result.latency_us.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.due_us[a] < result.due_us[b];
  });
  std::vector<double> out;
  out.reserve(order.size());
  for (size_t i : order) out.push_back(result.latency_us[i]);
  return out;
}

void Merge(const LoadResult& from, LoadResult* into, bool latencies) {
  if (latencies) {
    into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(),
                            from.latency_us.end());
    into->due_us.insert(into->due_us.end(), from.due_us.begin(),
                        from.due_us.end());
    into->lag_us.insert(into->lag_us.end(), from.lag_us.begin(),
                        from.lag_us.end());
  }
  into->samples.insert(into->samples.end(), from.samples.begin(),
                       from.samples.end());
  into->sequence.insert(into->sequence.end(), from.sequence.begin(),
                        from.sequence.end());
  into->attempted += from.attempted;
  into->ok += from.ok;
  into->failed += from.failed;
  into->shed += from.shed;
}

std::string OracleBody(const CubeStore& store, const Key& key) {
  const opmap::Comparator comparator(&store);
  switch (key.kind) {
    case Key::Kind::kCompare: {
      auto result = comparator.Compare(SpecOf(key.compare));
      return result.ok() ? opmap::server::EncodeComparisonResult(*result)
                         : "error: " + result.status().ToString();
    }
    case Key::Kind::kPairs: {
      auto result = comparator.CompareAllPairs(
          key.pairs.attribute, key.pairs.target_class,
          key.pairs.min_population);
      return result.ok() ? opmap::server::EncodePairSummaries(*result)
                         : "error: " + result.status().ToString();
    }
    case Key::Kind::kGi: {
      auto result = opmap::MineGeneralImpressions(store, GiOptionsOf(key.gi));
      return result.ok() ? opmap::server::EncodeGeneralImpressions(*result)
                         : "error: " + result.status().ToString();
    }
    case Key::Kind::kRender:
      break;
  }
  return "";
}

int64_t CheckSamples(const CubeStore& store, const KeySpace& space,
                     const std::vector<std::pair<size_t, uint64_t>>& samples) {
  std::map<size_t, uint64_t> oracle;
  int64_t mismatches = 0;
  for (const auto& [k, digest] : samples) {
    if (space.keys[k].kind == Key::Kind::kRender) continue;
    auto it = oracle.find(k);
    if (it == oracle.end()) {
      it = oracle.emplace(k, Digest(OracleBody(store, space.keys[k]))).first;
    }
    if (it->second != digest) ++mismatches;
  }
  return mismatches;
}

int64_t VerifyServed(const std::string& address, const CubeStore& store,
                     const KeySpace& space, const std::vector<size_t>& keys) {
  auto client_or = Connect(address);
  if (!client_or.ok()) return static_cast<int64_t>(keys.size());
  std::unique_ptr<Client> client = std::move(client_or).MoveValue();
  int64_t mismatches = 0;
  int64_t shed = 0;
  for (size_t k : keys) {
    const Key& key = space.keys[k];
    if (key.kind == Key::Kind::kRender) continue;
    std::string body;
    if (client == nullptr || !Issue(&client, key, &body, &shed) ||
        Digest(body) != Digest(OracleBody(store, key))) {
      ++mismatches;
    }
  }
  return mismatches;
}

double FetchReport(const std::string& address, const CubeStore& store,
                   int64_t* attempted, int64_t* failed) {
  std::vector<Key> report;
  Key gi;
  gi.kind = Key::Kind::kGi;
  gi.gi.mine_interactions = true;
  report.push_back(gi);
  for (int attr : store.attributes()) {
    Key pairs;
    pairs.kind = Key::Kind::kPairs;
    pairs.pairs.attribute = attr;
    pairs.pairs.target_class = kTargetClass;
    pairs.pairs.min_population = kMinPopulation;
    report.push_back(pairs);
  }
  const double t0 = NowS();
  auto client_or = Connect(address);
  std::unique_ptr<Client> client =
      client_or.ok() ? std::move(client_or).MoveValue() : nullptr;
  int64_t shed = 0;
  for (const Key& key : report) {
    ++*attempted;
    std::string body;
    if (client == nullptr || !Issue(&client, key, &body, &shed)) ++*failed;
  }
  return NowS() - t0;
}

double TouchEveryCube(const CubeStore& store) {
  const double t0 = NowS();
  for (int a : store.attributes()) {
    (void)store.AttrCube(a);
    for (int b : store.attributes()) {
      if (a < b) (void)store.PairCube(a, b);
    }
  }
  return NowS() - t0;
}

ReplayResult Replay(const CubeStore& store, const KeySpace& space,
                    const std::vector<size_t>& sequence, size_t max_requests) {
  ReplayResult out;
  opmap::QueryEngine engine(&store, kDaemonCacheBytes);
  std::unique_ptr<opmap::ExplorationSession> session;
  if (!space.view_attributes.empty()) {
    session = std::make_unique<opmap::ExplorationSession>(&store);
    session->set_cache(engine.cache());
    (void)session->OpenAttribute(space.view_attributes[0]);
  }
  const size_t n = std::min(sequence.size(), max_requests);
  uint64_t request_id = 1;
  for (size_t i = 0; i < n; ++i) {
    const Key& key = space.keys[sequence[i]];
    const double t0 = NowUs();
    std::string body;
    std::string request;
    switch (key.kind) {
      case Key::Kind::kCompare: {
        auto result = engine.Compare(SpecOf(key.compare));
        const double t1 = NowUs();
        out.engine_us.push_back(static_cast<double>(t1 - t0));
        request = opmap::server::EncodeCompareRequest(key.compare);
        (void)opmap::server::DecodeCompareRequest(request);
        if (result.ok()) body = opmap::server::EncodeComparisonResult(**result);
        break;
      }
      case Key::Kind::kPairs: {
        auto result = engine.CompareAllPairs(key.pairs.attribute,
                                             key.pairs.target_class,
                                             key.pairs.min_population);
        out.engine_us.push_back(NowUs() - t0);
        request = opmap::server::EncodeAllPairsRequest(key.pairs);
        (void)opmap::server::DecodeAllPairsRequest(request);
        if (result.ok()) body = opmap::server::EncodePairSummaries(*result);
        break;
      }
      case Key::Kind::kGi: {
        auto result = engine.Gi(GiOptionsOf(key.gi));
        out.engine_us.push_back(NowUs() - t0);
        request = opmap::server::EncodeGiRequest(key.gi);
        (void)opmap::server::DecodeGiRequest(request);
        if (result.ok()) {
          body = opmap::server::EncodeGeneralImpressions(**result);
        }
        break;
      }
      case Key::Kind::kRender: {
        auto result = session ? session->Render({}) : opmap::Result<std::string>("");
        out.engine_us.push_back(NowUs() - t0);
        if (result.ok()) body = *result;
        break;
      }
    }
    // The rest of the codec path: response payload, frame, and the
    // client's decode of both.
    const double c0 = NowUs();
    const std::string frame = opmap::server::EncodeFrame(
        request_id++,
        opmap::server::EncodeResponse(RespStatus::kOk, std::move(body)));
    uint64_t id = 0;
    std::string payload;
    size_t consumed = 0;
    std::string error;
    opmap::server::DecodeFrame(frame.data(), frame.size(),
                               opmap::server::kMaxResponseBytes, &id, &payload,
                               &consumed, &error);
    (void)opmap::server::DecodeResponse(payload);
    out.codec_us.push_back(NowUs() - c0);
  }
  const opmap::QueryCacheStats stats = engine.GetCacheStats();
  out.cache_hits = stats.hits;
  out.cache_lookups = stats.hits + stats.misses;
  out.cache_evictions = stats.evictions;

  // Uncached comparator costs of the same keys.
  const opmap::Comparator comparator(&store);
  size_t specs = 0;
  size_t sweeps = 0;
  for (size_t i = 0; i < n && (specs < 400 || sweeps < 40); ++i) {
    const Key& key = space.keys[sequence[i]];
    if (key.kind == Key::Kind::kCompare && specs < 400) {
      const double t0 = NowUs();
      (void)comparator.Compare(SpecOf(key.compare));
      out.spec_us.push_back(NowUs() - t0);
      ++specs;
    } else if (key.kind == Key::Kind::kPairs && sweeps < 40) {
      const double t0 = NowUs();
      (void)comparator.CompareAllPairs(key.pairs.attribute,
                                       key.pairs.target_class,
                                       key.pairs.min_population);
      out.all_pairs_us.push_back(NowUs() - t0);
      ++sweeps;
    }
  }
  return out;
}

void SetServingLayers(const ReplayResult& replay, const LoadResult& open_loop,
                      const std::string& stats_json, Sheet* sheet) {
  const double engine_p50 = Percentile(replay.engine_us, 0.5);
  const double codec_p50 = Percentile(replay.codec_us, 0.5);
  const double client_p50 = Percentile(open_loop.latency_us, 0.5);
  sheet->Set("core.engine_us.p50", engine_p50);
  sheet->Set("core.engine_us.p99", Percentile(replay.engine_us, 0.99));
  sheet->Set("core.cache_hits", static_cast<double>(replay.cache_hits));
  sheet->Set("core.cache_lookups", static_cast<double>(replay.cache_lookups));
  sheet->Set("core.cache_hit_ratio",
             replay.cache_lookups > 0
                 ? static_cast<double>(replay.cache_hits) /
                       static_cast<double>(replay.cache_lookups)
                 : 0.0);
  sheet->Set("core.cache_evictions",
             static_cast<double>(replay.cache_evictions));
  sheet->Set("server.codec_us", codec_p50);
  sheet->Set("compare.spec_us.p50", Percentile(replay.spec_us, 0.5));
  sheet->Set("compare.spec_us.p99", Percentile(replay.spec_us, 0.99));
  sheet->Set("compare.all_pairs_us.p50", Percentile(replay.all_pairs_us, 0.5));
  sheet->Set("compare.all_pairs_us.p99",
             Percentile(replay.all_pairs_us, 0.99));
  sheet->Set("server.exec_us.p50",
             StatsField(stats_json, "server.request_us.p50"));
  sheet->Set("server.residual_us.p50", client_p50 - engine_p50 - codec_p50);
  sheet->Set("server.shed_ratio",
             open_loop.attempted > 0
                 ? static_cast<double>(open_loop.shed) /
                       static_cast<double>(open_loop.attempted)
                 : 0.0);
}

}  // namespace perfbench
