// serve_hot and serve_cold: `opmap serve` with its default settings as a
// separate process, driven over unix-socket connections.
//
// serve_hot:  32 attributes; ~100 request keys drawn Zipf-skewed, so the
//             result set fits the daemon's cache and nearly every lookup
//             hits: the per-request path dominates.
// serve_cold: 128 attributes; keys uniform over every usable (attribute,
//             ordered value pair, class) and every all-pairs sweep, with
//             the mix weighted toward sweeps: results far exceed the
//             cache, so the comparator over cubes dominates.
#include <algorithm>
#include <memory>

#include "opmap/cube/cube_store.h"
#include "perfbench/load.h"
#include "perfbench/workloads.h"

namespace perfbench {

using opmap::CubeStore;
using opmap::Dataset;

namespace {

struct ServeShape {
  int attrs;
  int64_t rows;
  double open_qps;  // fixed open-loop rate: about half the measured peak
};

constexpr ServeShape kHot = {32, 100000, 3000};
constexpr ServeShape kCold = {128, 20000, 400};
constexpr int kConnections = 4;
constexpr int kSetups = 5;
// Shares of --seconds for each round's closed-loop and open-loop bursts.
constexpr double kClosedShare = 0.015;
constexpr double kOpenShare = 0.04;
// An open loop whose generator woke this late (p99) did not offer the
// load it claims; the run is marked invalid.
constexpr double kMaxLagUs = 20000;

KeySpace HotKeys(const CubeStore& store, uint64_t seed) {
  Rng rng(seed, 7);
  std::vector<Key> compares = CompareKeys(store);
  std::vector<Key> pairs = PairsKeys(store);
  std::vector<Key> keys;
  for (int i = 0; i < 72; ++i) keys.push_back(compares[rng.Below(compares.size())]);
  for (int i = 0; i < 14; ++i) keys.push_back(pairs[rng.Below(pairs.size())]);
  for (int i = 0; i < 4; ++i) {
    Key gi;
    gi.kind = Key::Kind::kGi;
    gi.gi.top_influence = 5 * i;
    gi.gi.mine_interactions = i % 2 == 1;
    keys.push_back(gi);
  }
  for (int i = 0; i < 10; ++i) {
    Key render;
    render.kind = Key::Kind::kRender;
    keys.push_back(render);
  }
  // Seeded shuffle: which key is hottest changes with the seed.
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Below(i + 1)]);
  }
  KeySpace space;
  space.keys = std::move(keys);
  space.zipf_s = 1.0;
  for (int attr : store.attributes()) {
    space.view_attributes.push_back(store.schema().attribute(attr).name());
  }
  return space;
}

KeySpace ColdKeys(const CubeStore& store) {
  KeySpace space;
  auto add_group = [&](std::vector<Key> keys, double weight) {
    std::vector<size_t> group;
    for (Key& key : keys) {
      group.push_back(space.keys.size());
      space.keys.push_back(std::move(key));
    }
    space.groups.push_back(std::move(group));
    space.group_weights.push_back(weight);
  };
  add_group(PairsKeys(store), 0.6);
  add_group(CompareKeys(store), 0.4);
  return space;
}

// Publishes the store again under a new file name and has the daemon
// reload it: seconds from the save's start to the OK reply, and the
// RELOAD round trip alone.
bool Republish(const CubeStore& store, const std::string& address, int index,
               double* publish_s, double* reload_s) {
  const std::string path = "cubes-" + std::to_string(index) + ".opmc";
  const double t0 = NowS();
  if (!store.SaveToFile(path).ok()) return false;
  auto client = Connect(address);
  if (!client.ok()) return false;
  const double t1 = NowS();
  const bool ok = Reload(client->get(), path);
  *publish_s = NowS() - t0;
  *reload_s = NowS() - t1;
  return ok;
}

}  // namespace

void RunServe(const RunArgs& args, bool cold, Sheet* sheet) {
  const ServeShape shape = cold ? kCold : kHot;
  const Dataset data = MakeCallLog(shape.attrs, shape.rows, args.seed);
  const double rows = static_cast<double>(shape.rows);
  const double t_start = NowS();

  // The served container, as the overnight job would leave it.
  CheckOk(OrDie(opmap::CubeBuilder::FromDataset(data), "cube build")
              .SaveToFile("cubes.opmc"),
          "save cubes");
  std::vector<double> load_s;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowS();
    OrDie(CubeStore::LoadFromFile("cubes.opmc"), "mapped load");
    load_s.push_back(NowS() - t0);
  }
  // The oracle's view of the served container.
  const CubeStore store =
      OrDie(CubeStore::LoadFromFile("cubes.opmc"), "mapped load");
  const KeySpace space = cold ? ColdKeys(store) : HotKeys(store, args.seed);

  // Set-up: spawn until the first OK schema reply, several times.
  std::vector<double> ready_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->Stop();
    daemon = OrDie(Daemon::Start(args, "cubes.opmc", "d.sock"), "daemon");
    ready_s.push_back(daemon->ready_s());
  }
  sheet->Set("setup_s", Median(ready_s));
  const std::string address = daemon->address();

  // Rounds until the run's time is up. Each round samples every metric
  // once, so each median spans the whole run rather than one stretch of
  // it: rebuild + save, mining, a republish that the daemon reloads (which
  // also empties its cache), the morning report from that cold cache, a
  // closed-loop burst for peak throughput, and an open-loop burst at the
  // fixed rate. p50 pools every burst's latencies; p99 is windowed, so a
  // stall in one stretch of the run moves one window.
  std::vector<double> build_s, mine_s, publish_s, reload_s, report_s, peak;
  LoadResult open;
  LoadSpec spec;
  spec.address = address;
  spec.connections = kConnections;
  spec.seed = args.seed;
  spec.sample_share = cold ? 0.02 : 0.01;
  for (int round = 0; round == 0 || NowS() - t_start < 0.9 * args.seconds;
       ++round) {
    double t0 = NowS();
    CheckOk(OrDie(opmap::CubeBuilder::FromDataset(data), "cube build")
                .SaveToFile("rebuilt.opmc"),
            "save cubes");
    build_s.push_back(NowS() - t0);
    mine_s.push_back(TimedMine(data, sheet));
    double p = 0, r = 0;
    ++sheet->attempted;
    if (!Republish(store, address, round % 2, &p, &r)) ++sheet->failed;
    publish_s.push_back(p);
    reload_s.push_back(r);
    report_s.push_back(
        FetchReport(address, store, &sheet->attempted, &sheet->failed));

    spec.stream = 100 + 2 * static_cast<uint64_t>(round);
    spec.rate_qps = 0;
    spec.duration_s = kClosedShare * args.seconds;
    const LoadResult closed = RunLoad(spec, space);
    peak.push_back(static_cast<double>(closed.ok) / closed.wall_s);
    Merge(closed, &open, /*latencies=*/false);
    spec.stream += 1;
    spec.rate_qps = shape.open_qps;
    spec.duration_s = kOpenShare * args.seconds;
    Merge(RunLoad(spec, space), &open, /*latencies=*/true);
  }
  sheet->Set("build_rows_per_s", rows / Median(build_s));
  sheet->Set("mine_rows_per_s", rows / Median(mine_s));
  sheet->Set("freshness_ms", 1e3 * Median(publish_s));
  sheet->Set("ingest_rows_per_s", rows / (Median(build_s) + Median(reload_s)));
  sheet->Set("report_s", Median(report_s));
  sheet->Set("peak_qps", Median(peak));
  sheet->Set("p50_us", Percentile(open.latency_us, 0.5));
  sheet->Set("p99_us", WindowedPercentile(LatenciesInSendOrder(open), 0.99,
                                          kTailWindow));
  sheet->attempted += open.attempted;
  sheet->failed += open.failed;
  const double lag_p99 = Percentile(open.lag_us, 0.99);
  if (lag_p99 > kMaxLagUs) {
    sheet->Mismatch("open-loop generator fell behind (lag p99 " +
                    std::to_string(lag_p99) + " us)");
  }

  const std::string stats = FetchStats(address);
  sheet->Set("peak_rss_mb", PeakRssMb(daemon->pid()));
  if (!daemon->Stop()) sheet->Mismatch("daemon did not exit cleanly");

  // Served bodies against the in-process comparator/GI encodings.
  if (const int64_t bad = CheckSamples(store, space, open.samples); bad > 0) {
    sheet->failed += bad;
    sheet->Mismatch(std::to_string(bad) + " served bodies differ from the oracle");
  }

  if (args.trace) {
    sheet->Set("cube.load_s", Median(load_s));
    const CubeStore fresh =
        OrDie(CubeStore::LoadFromFile("cubes.opmc"), "mapped load");
    sheet->Set("cube.first_touch_s", TouchEveryCube(fresh));
    const ReplayResult replay = Replay(store, space, open.sequence, 20000);
    SetServingLayers(replay, open, stats, sheet);
    sheet->Set("server.reload_ms", 1e3 * Median(reload_s));
    sheet->Set("gen.lag_us.p99", lag_p99);
  }
}

}  // namespace perfbench
