#include "opmap/server/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "opmap/common/trace.h"
#include "opmap/server/client.h"

namespace opmap::server {

namespace {

// Deterministic per-thread PRNG (xorshift64*): the schedule depends only
// on (seed, thread index), so two runs against the same store issue the
// same requests in the same per-thread order.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed == 0 ? 0x9e3779b97f4a7c15ull : seed) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }
};

struct MixEntry {
  std::string op;
  int weight = 0;
};

Result<std::vector<std::string>> ParseMix(const std::string& mix) {
  static const char* kOps[] = {"ping",   "compare", "pairs", "gi",
                               "render", "stats",   "schema"};
  std::vector<MixEntry> entries;
  size_t pos = 0;
  while (pos < mix.size()) {
    size_t comma = mix.find(',', pos);
    if (comma == std::string::npos) comma = mix.size();
    const std::string item = mix.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t colon = item.find(':');
    MixEntry entry;
    entry.op = colon == std::string::npos ? item : item.substr(0, colon);
    entry.weight = 1;
    if (colon != std::string::npos) {
      try {
        entry.weight = std::stoi(item.substr(colon + 1));
      } catch (...) {
        return Status::InvalidArgument("invalid mix weight in '" + item +
                                       "'");
      }
    }
    bool known = false;
    for (const char* op : kOps) known = known || entry.op == op;
    if (!known) {
      return Status::InvalidArgument(
          "unknown mix op '" + entry.op +
          "' (expected ping|compare|pairs|gi|render|stats|schema)");
    }
    if (entry.weight < 0) {
      return Status::InvalidArgument("negative mix weight in '" + item + "'");
    }
    entries.push_back(std::move(entry));
  }
  // Expand weights into a schedule slice that each thread walks cyclically
  // from its own offset.
  std::vector<std::string> schedule;
  for (const MixEntry& entry : entries) {
    for (int i = 0; i < entry.weight; ++i) schedule.push_back(entry.op);
  }
  if (schedule.empty()) {
    return Status::InvalidArgument("empty op mix '" + mix + "'");
  }
  return schedule;
}

// The request pools, derived once from the daemon's schema so every
// thread issues valid arguments without sharing code with the server.
struct Workload {
  std::vector<CompareRequest> compares;
  std::vector<AllPairsRequest> all_pairs;
  std::vector<std::string> render_attrs;  // attribute names for kOpen
};

Result<Workload> BuildWorkload(const SchemaInfo& schema) {
  Workload w;
  for (size_t i = 0; i < schema.attributes.size(); ++i) {
    const SchemaInfo::AttrInfo& attr = schema.attributes[i];
    if (static_cast<int32_t>(i) == schema.class_index) continue;
    if (!attr.materialized || attr.labels.size() < 2) continue;
    AllPairsRequest pairs;
    pairs.attribute = static_cast<int32_t>(i);
    pairs.target_class = 0;
    w.all_pairs.push_back(pairs);
    w.render_attrs.push_back(attr.name);
    for (size_t v = 0; v + 1 < attr.labels.size(); ++v) {
      CompareRequest cmp;
      cmp.attribute = static_cast<int32_t>(i);
      cmp.value_a = static_cast<int32_t>(v);
      cmp.value_b = static_cast<int32_t>(v + 1);
      cmp.target_class = 0;
      w.compares.push_back(cmp);
    }
  }
  if (w.compares.empty()) {
    return Status::FailedPrecondition(
        "served store has no materialized attribute with >= 2 values to "
        "compare");
  }
  return w;
}

struct ThreadResult {
  std::map<std::string, std::vector<int64_t>> lat;
  int64_t ok = 0;
  int64_t error = 0;
  int64_t shed = 0;
  Status status;
};

void RunClientThread(const LoadgenOptions& options, const Workload& work,
                     const std::vector<std::string>& schedule,
                     int thread_index,
                     std::chrono::steady_clock::time_point deadline,
                     std::atomic<int64_t>* issued, ThreadResult* out) {
  auto client_or = Client::Connect(options.connect, options.timeout_ms);
  if (!client_or.ok()) {
    out->status = client_or.status();
    return;
  }
  std::unique_ptr<Client> client = std::move(client_or).MoveValue();
  Rng rng(options.seed * 1315423911ull + static_cast<uint64_t>(thread_index));
  size_t slot = static_cast<size_t>(thread_index) % schedule.size();
  bool view_open = false;

  while (std::chrono::steady_clock::now() < deadline) {
    if (options.max_requests > 0 &&
        issued->fetch_add(1, std::memory_order_relaxed) >=
            options.max_requests) {
      break;
    }
    const std::string& op = schedule[slot];
    slot = (slot + 1) % schedule.size();

    // The render op needs a current view; open one (untimed as "render")
    // on first use or after the server invalidated the session.
    if (op == "render" && !view_open) {
      SessionRequest open;
      open.verb = SessionVerb::kOpen;
      open.attribute = work.render_attrs[rng.Below(work.render_attrs.size())];
      auto open_reply = client->Session(open);
      if (!open_reply.ok()) {
        out->status = open_reply.status();
        return;
      }
      if (open_reply->status == RespStatus::kRetryLater) {
        out->shed++;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (!open_reply->ok()) {
        out->error++;
        continue;
      }
      out->ok++;
      view_open = true;
    }

    const auto start = std::chrono::steady_clock::now();
    Result<Reply> reply = Status::Internal("no op issued");
    if (op == "ping") {
      reply = client->Ping();
    } else if (op == "compare") {
      reply = client->Compare(work.compares[rng.Below(work.compares.size())]);
    } else if (op == "pairs") {
      reply =
          client->AllPairs(work.all_pairs[rng.Below(work.all_pairs.size())]);
    } else if (op == "gi") {
      GiRequest gi;
      gi.top_influence = 5;
      reply = client->Gi(gi);
    } else if (op == "render") {
      reply = client->Render(RenderRequest{});
    } else if (op == "stats") {
      reply = client->Stats();
    } else {  // schema
      reply = client->Call(Op::kSchema);
    }
    const int64_t elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();

    if (!reply.ok()) {
      out->status = reply.status();
      return;
    }
    const Reply& r = *reply;
    if (r.status == RespStatus::kRetryLater) {
      out->shed++;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (r.status == RespStatus::kShuttingDown) break;
    if (!r.ok()) {
      out->error++;
      if (op == "render") view_open = false;  // view may have been dropped
      continue;
    }
    out->ok++;
    out->lat[op].push_back(elapsed_us);
  }
}

// Nearest-rank percentile of an ascending-sorted sample; q in [0,1].
int64_t PercentileUs(const std::vector<int64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  if (q <= 0) return sorted_us.front();
  if (q >= 1) return sorted_us.back();
  // Nearest-rank: the smallest value with at least q of the mass below it.
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size()) + 0.999999);
  return sorted_us[std::min(rank, sorted_us.size()) - 1];
}

}  // namespace

Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options) {
  if (options.clients < 1) {
    return Status::InvalidArgument("loadgen needs at least one client");
  }
  OPMAP_ASSIGN_OR_RETURN(std::vector<std::string> schedule,
                         ParseMix(options.mix));

  // Probe: fetch the schema once and derive valid request pools.
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<Client> probe,
                         Client::Connect(options.connect, options.timeout_ms));
  OPMAP_ASSIGN_OR_RETURN(Reply schema_reply, probe->Call(Op::kSchema));
  OPMAP_RETURN_NOT_OK(schema_reply.ToStatus());
  OPMAP_ASSIGN_OR_RETURN(SchemaInfo schema,
                         DecodeSchemaInfo(schema_reply.body));
  OPMAP_ASSIGN_OR_RETURN(Workload work, BuildWorkload(schema));
  if (options.verbose) {
    std::fprintf(stderr,
                 "loadgen: %d clients, %.1fs, mix=%s (%zu compare specs, "
                 "%zu attrs)\n",
                 options.clients, options.duration_s, options.mix.c_str(),
                 work.compares.size(), work.render_attrs.size());
  }

  std::vector<ThreadResult> results(static_cast<size_t>(options.clients));
  std::atomic<int64_t> issued{0};
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(options.duration_s * 1e6));
  const int64_t run_start_us = MonotonicMicros();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(options.clients));
    for (int i = 0; i < options.clients; ++i) {
      threads.emplace_back(RunClientThread, std::cref(options),
                           std::cref(work), std::cref(schedule), i, deadline,
                           &issued, &results[static_cast<size_t>(i)]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s =
      static_cast<double>(MonotonicMicros() - run_start_us) / 1e6;

  LoadgenReport report;
  report.wall_s = wall_s;
  for (ThreadResult& r : results) {
    OPMAP_RETURN_NOT_OK(r.status);
    report.total_ok += r.ok;
    report.total_error += r.error;
    report.retry_later += r.shed;
    for (auto& [op, lat] : r.lat) {
      auto& merged = report.latencies_us[op];
      merged.insert(merged.end(), lat.begin(), lat.end());
    }
  }
  for (auto& [op, lat] : report.latencies_us) {
    std::sort(lat.begin(), lat.end());
  }
  report.qps = wall_s > 0 ? static_cast<double>(report.total_ok) / wall_s
                          : 0.0;
  return report;
}

std::string FormatLoadgenReport(const LoadgenOptions& options,
                                const LoadgenReport& report) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "loadgen: %lld ok, %lld error, %lld shed in %.2fs "
                "(%d clients) -> %.1f qps\n",
                static_cast<long long>(report.total_ok),
                static_cast<long long>(report.total_error),
                static_cast<long long>(report.retry_later), report.wall_s,
                options.clients, report.qps);
  out += line;
  std::snprintf(line, sizeof(line), "%-10s %8s %10s %10s %10s\n", "op", "n",
                "p50_us", "p99_us", "p999_us");
  out += line;
  for (const auto& [op, lat] : report.latencies_us) {
    std::snprintf(line, sizeof(line), "%-10s %8zu %10lld %10lld %10lld\n",
                  op.c_str(), lat.size(),
                  static_cast<long long>(PercentileUs(lat, 0.50)),
                  static_cast<long long>(PercentileUs(lat, 0.99)),
                  static_cast<long long>(PercentileUs(lat, 0.999)));
    out += line;
  }
  return out;
}

}  // namespace opmap::server
