// ingest_live: writes beside reads. An Ingester in this process appends
// seeded 1024-row batches back to back (fsync at segment seals) and
// compacts every 16 batches; its publish hook sends RELOAD to an `opmap
// serve` daemon serving the ingest directory, while three connections
// send a light open-loop compare/GI mix.
#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "opmap/common/io.h"
#include "opmap/cube/cube_store.h"
#include "opmap/gi/impressions.h"
#include "opmap/ingest/ingester.h"
#include "perfbench/load.h"
#include "perfbench/workloads.h"

namespace perfbench {

using opmap::CubeStore;
using opmap::Dataset;
using opmap::Ingester;

namespace {

constexpr int kAttrs = 32;
constexpr int64_t kBaseRows = 50000;
constexpr int64_t kBatchRows = 1024;
constexpr int kPoolBatches = 64;
constexpr int kCompactEvery = 16;
constexpr int kReaders = 3;
constexpr double kReadQps = 600;
constexpr int kPeakConnections = 4;
constexpr int kSetups = 3;
constexpr int kVerifyKeys = 40;
constexpr int kPostRounds = 10;
// Shares of --seconds: the live phase, and each post round's closed-loop
// burst.
constexpr double kLiveShare = 0.45;
constexpr double kClosedShare = 0.03;

opmap::IngestOptions Options() {
  opmap::IngestOptions options;
  options.wal.sync_every_append = false;  // --fsync=seal
  return options;
}

std::string Serialize(const CubeStore& store) {
  std::ostringstream out;
  CheckOk(store.Save(&out, CubeStore::SaveFormat::kV3Aligned), "serialize");
  return out.str();
}

struct Writer {
  std::vector<int> acked;          // pool index of every acknowledged batch
  std::vector<double> append_us;
  std::vector<double> compact_s;   // Compact() wall, publish included
  std::vector<double> freshness_s; // Compact() call -> RELOAD OK
  std::vector<double> reload_s;    // RELOAD round trip
  int64_t compactions = 0;
  int64_t failed = 0;
  double wall_s = 0;
  std::string last_path;
};

}  // namespace

void RunIngestLive(const RunArgs& args, Sheet* sheet) {
  const Dataset all =
      MakeCallLog(kAttrs, kBaseRows + kPoolBatches * kBatchRows, args.seed);
  const Dataset base = SliceRows(all, 0, kBaseRows);
  std::vector<Dataset> pool;
  for (int i = 0; i < kPoolBatches; ++i) {
    const int64_t begin = kBaseRows + i * kBatchRows;
    pool.push_back(SliceRows(all, begin, begin + kBatchRows));
  }
  ResetPeakRss();

  // Set-up, several times: Create over the initial base, compact it, and
  // start the daemon on the committed container.
  std::vector<double> setup_s;
  std::unique_ptr<Ingester> ing;
  std::unique_ptr<Daemon> daemon;
  std::string served_path;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->Stop();
    if (ing) CheckOk(ing->Close(), "close ingester");
    const double t0 = NowS();
    ing = OrDie(Ingester::Create(opmap::Env::Default(),
                                 "ingest-" + std::to_string(i), all.schema(),
                                 Options()),
                "create ingester");
    ing->set_publish_hook([&](const CubeStore*, const std::string& path) {
      served_path = path;
      return opmap::Status::OK();
    });
    CheckOk(ing->AppendBatch(base).status(), "append base");
    CheckOk(ing->Compact(), "compact base");
    daemon = OrDie(Daemon::Start(args, served_path, "d.sock"), "daemon");
    setup_s.push_back(NowS() - t0);
  }
  sheet->Set("setup_s", Median(setup_s));
  const std::string address = daemon->address();

  const CubeStore base_store = OrDie(CubeStore::LoadFromFile(served_path), "load");
  KeySpace space;
  {
    std::vector<Key> keys = CompareKeys(base_store);
    std::vector<size_t> compares, gis;
    for (size_t i = 0; i < keys.size(); ++i) compares.push_back(i);
    for (int i = 0; i < 4; ++i) {
      Key gi;
      gi.kind = Key::Kind::kGi;
      gi.gi.top_influence = 5 * i;
      gis.push_back(keys.size());
      keys.push_back(gi);
    }
    space.keys = std::move(keys);
    space.groups = {compares, gis};
    space.group_weights = {0.9, 0.1};
  }

  // The live phase: the writer thread against the open-loop readers.
  const double live_s = kLiveShare * args.seconds;
  const int64_t wal0 = CounterValue("wal.bytes_appended");
  const int64_t rows0 = CounterValue("cube.rows_counted");
  Writer w;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto client_or = Connect(address);
    if (!client_or.ok()) {
      ++w.failed;
      return;
    }
    std::unique_ptr<opmap::server::Client> client =
        std::move(client_or).MoveValue();
    double compact_start = 0;
    ing->set_publish_hook([&](const CubeStore*, const std::string& path) {
      const double t = NowS();
      const bool ok = Reload(client.get(), path);
      w.reload_s.push_back(NowS() - t);
      w.freshness_s.push_back(NowS() - compact_start);
      w.last_path = path;
      return ok ? opmap::Status::OK()
                : opmap::Status::IOError("reload refused");
    });
    const double t0 = NowS();
    for (int b = 0; !stop.load(std::memory_order_relaxed); ++b) {
      const int slot = b % kPoolBatches;
      const double a0 = NowUs();
      const bool ok = ing->AppendBatch(pool[static_cast<size_t>(slot)]).ok();
      w.append_us.push_back(NowUs() - a0);
      if (!ok) {
        ++w.failed;
        continue;
      }
      w.acked.push_back(slot);
      if ((b + 1) % kCompactEvery == 0) {
        compact_start = NowS();
        w.failed += !ing->Compact().ok();
        w.compact_s.push_back(NowS() - compact_start);
        ++w.compactions;
      }
    }
    w.wall_s = NowS() - t0;
    // Fold the tail so the daemon serves every acknowledged row.
    compact_start = NowS();
    w.failed += !ing->Compact().ok();
    ++w.compactions;
    // The hook refers to this thread's client; no compaction may use it
    // after the thread ends.
    ing->set_publish_hook(nullptr);
  });
  LoadSpec spec;
  spec.address = address;
  spec.connections = kReaders;
  spec.rate_qps = kReadQps;
  spec.duration_s = live_s;
  spec.seed = args.seed;
  spec.stream = 5;
  const LoadResult open = RunLoad(spec, space);
  stop = true;
  writer.join();
  // The ingesting side of the program peaks here; the post-phase work
  // below is the benchmark's own (reports, oracle, mining probes).
  const double ingester_peak_mb = PeakRssMb();
  const int64_t publish_failures = ing->GetStats().publish_failures;
  const double live_rows_counted =
      static_cast<double>(CounterValue("cube.rows_counted") - rows0);

  const double acked_rows = static_cast<double>(w.acked.size() * kBatchRows);
  sheet->Set("ingest_rows_per_s", acked_rows / w.wall_s);
  sheet->Set("freshness_ms", 1e3 * Median(w.freshness_s));
  sheet->Set("p50_us", Percentile(open.latency_us, 0.5));
  sheet->Set("p99_us", WindowedPercentile(LatenciesInSendOrder(open), 0.99,
                                          kTailWindow));
  sheet->attempted += open.attempted + static_cast<int64_t>(w.append_us.size()) +
                      w.compactions;
  sheet->failed += open.failed + w.failed + publish_failures;

  // Quiesced: the daemon's generation counts one reload per compaction,
  // and its answers match the final snapshot.
  {
    auto client = Connect(address);
    auto reply = client.ok() ? (*client)->Call(opmap::server::Op::kSchema)
                             : opmap::Result<opmap::server::Reply>(
                                   client.status());
    auto info = reply.ok() ? opmap::server::DecodeSchemaInfo(reply->body)
                           : opmap::Result<opmap::server::SchemaInfo>(
                                 reply.status());
    if (!info.ok() ||
        info->store_generation != static_cast<uint64_t>(1 + w.compactions)) {
      sheet->Mismatch("daemon generation is not 1 + compactions");
    }
  }
  const std::shared_ptr<const CubeStore> snapshot =
      OrDie(ing->Snapshot(), "snapshot");
  {
    Rng rng(args.seed, 11);
    std::vector<size_t> keys;
    for (int i = 0; i < kVerifyKeys; ++i) keys.push_back(rng.Below(space.keys.size()));
    const int64_t bad = VerifyServed(address, *snapshot, space, keys);
    sheet->attempted += kVerifyKeys;
    sheet->failed += bad;
    if (bad > 0) {
      sheet->Mismatch(std::to_string(bad) +
                      " served bodies differ from the final snapshot");
    }
  }

  // Rounds over the rest of the run, so each median spans it: a RELOAD
  // that empties the daemon's cache, the morning report from it, a
  // closed-loop burst, mining, and the next slice of the oracle build (one
  // CubeBuilder over every acknowledged row, fed a slice per round).
  opmap::CubeBuilder oracle_builder =
      OrDie(opmap::CubeBuilder::Make(all.schema(), Options().cube), "builder");
  CheckOk(oracle_builder.AddDataset(base), "oracle base");
  std::vector<double> report_s, peak, mine_s, oracle_rate;
  auto reload_client = OrDie(Connect(address), "connect");
  spec.connections = kPeakConnections;
  spec.rate_qps = 0;
  spec.duration_s = kClosedShare * args.seconds;
  size_t next_batch = 0;
  for (int round = 0; round < kPostRounds; ++round) {
    ++sheet->attempted;
    if (!Reload(reload_client.get(), w.last_path)) ++sheet->failed;
    report_s.push_back(
        FetchReport(address, base_store, &sheet->attempted, &sheet->failed));
    spec.stream = 200 + static_cast<uint64_t>(round);
    const LoadResult closed = RunLoad(spec, space);
    peak.push_back(static_cast<double>(closed.ok) / closed.wall_s);
    sheet->attempted += closed.attempted;
    sheet->failed += closed.failed;
    mine_s.push_back(TimedMine(all, sheet));
    // This round's share of the acknowledged batches, in order, as one
    // dataset (the copy is untimed).
    const size_t end = w.acked.size() * static_cast<size_t>(round + 1) /
                       static_cast<size_t>(kPostRounds);
    Dataset slice(all.schema());
    slice.Reserve(static_cast<int64_t>(end - next_batch) * kBatchRows);
    std::vector<opmap::ValueCode> row(static_cast<size_t>(all.num_attributes()));
    for (; next_batch < end; ++next_batch) {
      const Dataset& batch = pool[static_cast<size_t>(w.acked[next_batch])];
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        for (int a = 0; a < batch.num_attributes(); ++a) {
          row[static_cast<size_t>(a)] = batch.code(r, a);
        }
        slice.AppendRowUnchecked(row.data());
      }
    }
    if (slice.num_rows() > 0) {
      const double t0 = NowS();
      CheckOk(oracle_builder.AddDataset(slice), "oracle");
      oracle_rate.push_back(static_cast<double>(slice.num_rows()) /
                            (NowS() - t0));
    }
  }
  sheet->Set("report_s", Median(report_s));
  sheet->Set("peak_qps", Median(peak));
  sheet->Set("mine_rows_per_s",
             static_cast<double>(all.num_rows()) / Median(mine_s));
  sheet->Set("build_rows_per_s", Median(oracle_rate));
  sheet->Set("peak_rss_mb", ingester_peak_mb + PeakRssMb(daemon->pid()));
  const std::string stats = FetchStats(address);
  reload_client.reset();
  if (!daemon->Stop()) sheet->Mismatch("daemon did not exit cleanly");
  const CubeStore oracle = std::move(oracle_builder).Finish();
  if (Serialize(oracle) != Serialize(*snapshot)) {
    sheet->Mismatch("final snapshot differs from a batch build of the acked rows");
  }

  if (args.trace) {
    sheet->Set("ingest.append_us.p50", Percentile(w.append_us, 0.5));
    sheet->Set("ingest.append_us.p99", Percentile(w.append_us, 0.99));
    sheet->Set("ingest.compact_s", Median(w.compact_s));
    sheet->Set("ingest.wal_bytes_per_row",
               static_cast<double>(CounterValue("wal.bytes_appended") - wal0) /
                   std::max(1.0, acked_rows));
    sheet->Set("cube.rows_counted", live_rows_counted);
    sheet->Set("server.reload_ms", 1e3 * Median(w.reload_s));
    sheet->Set("gen.lag_us.p99", Percentile(open.lag_us, 0.99));
    const CubeStore served =
        OrDie(CubeStore::LoadFromFile(w.last_path), "mapped load");
    sheet->Set("cube.first_touch_s", TouchEveryCube(served));
    double t0 = NowS();
    (void)opmap::MineGeneralImpressions(served);
    sheet->Set("gi.pass_s", NowS() - t0);
    const ReplayResult replay = Replay(served, space, open.sequence, 20000);
    SetServingLayers(replay, open, stats, sheet);
    // Recovery: a WAL tail past the last compaction, replayed on reopen.
    for (int i = 0; i < 8; ++i) {
      CheckOk(ing->AppendBatch(pool[static_cast<size_t>(i)]).status(), "append");
    }
    CheckOk(ing->Close(), "close");
    ing.reset();
    t0 = NowS();
    ing = OrDie(Ingester::Open(opmap::Env::Default(), "ingest-" +
                                   std::to_string(kSetups - 1), Options()),
                "recover");
    sheet->Set("ingest.recover_s", NowS() - t0);
    if (ing->GetStats().replayed_rows != 8 * kBatchRows) {
      sheet->Mismatch("recovery replayed the wrong number of rows");
    }
  }
  CheckOk(ing->Close(), "close ingester");
}

}  // namespace perfbench
