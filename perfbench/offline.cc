// offline_build: the overnight job and the morning report, in process.
// load -> cube build -> v3 save -> CAR mining -> report (mapped load, GI
// pass with interactions, uncached all-pairs sweep over every attribute),
// then the analyst's in-process queries over the saved cubes.
#include <filesystem>
#include <memory>
#include <thread>

#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset_io.h"
#include "opmap/gi/impressions.h"
#include "perfbench/load.h"
#include "perfbench/workloads.h"

namespace perfbench {

using opmap::CubeStore;
using opmap::Dataset;

namespace {

constexpr int kAttrs = 64;
constexpr int64_t kRows = 300000;
// Share of --seconds for each round's one-thread and four-thread query
// bursts.
constexpr double kQueryShare = 0.01;
constexpr int kQueryThreads = 4;
constexpr int32_t kTargetClass = 1;
constexpr int kOverheadPairs = 3;

struct Pass {
  double load_s = 0;
  double build_s = 0;
  double save_s = 0;
  double mine_s = 0;
  double report_s = 0;
  double first_answer_s = 0;  // report start -> GI overview ready
  double wall_s = 0;
};

// Mined rule supports must equal the matching cube cells: one-condition
// rules against the attribute cube, two-condition rules against the pair
// cube. Returns the mismatches.
int64_t CheckRules(const opmap::RuleSet& rules, const CubeStore& store) {
  int64_t bad = 0;
  for (const opmap::ClassRule& rule : rules.rules()) {
    const auto& c = rule.conditions;
    if (c.size() == 1) {
      const opmap::RuleCube* cube = store.AttrCube(c[0].attribute).value();
      bad += cube->count({c[0].value, rule.class_value}) != rule.support_count;
    } else if (c.size() == 2) {
      const opmap::RuleCube* cube =
          store.PairCube(c[0].attribute, c[1].attribute).value();
      const std::vector<opmap::ValueCode> cell = {c[0].value, c[1].value,
                                                  rule.class_value};
      bad += cube->count(cell) != rule.support_count ||
             cube->MarginCount(cell, 2) != rule.body_count;
    }
  }
  return bad;
}

// The morning report over the saved cubes: mapped load, GI pass with
// interactions (the first answer on screen), then an uncached all-pairs
// sweep of every attribute. Returns its seconds.
double Report(Sheet* sheet, Spans* spans, double* first_answer_s) {
  const double t = NowS();
  Scope s(spans, "report");
  const CubeStore store = [&] {
    Scope s2(spans, "cube.load");
    return OrDie(CubeStore::LoadFromFile("cubes.opmc"), "mapped load");
  }();
  opmap::GiOptions gi;
  gi.mine_interactions = true;
  {
    Scope s2(spans, "gi.pass");
    ++sheet->attempted;
    if (!opmap::MineGeneralImpressions(store, gi).ok()) ++sheet->failed;
  }
  *first_answer_s = NowS() - t;
  const opmap::Comparator comparator(&store);
  for (int attr : store.attributes()) {
    Scope s2(spans, "compare.all_pairs");
    ++sheet->attempted;
    if (!comparator.CompareAllPairs(attr, kTargetClass).ok()) ++sheet->failed;
  }
  return NowS() - t;
}

// One pipeline pass. With `spans`, every layer call is wrapped in a span.
Pass RunPass(Sheet* sheet, Spans* spans) {
  Pass p;
  const double t_pass = NowS();
  double t = NowS();
  Dataset data = [&] {
    Scope s(spans, "data.load");
    return OrDie(opmap::LoadDatasetFromFile("data.opmd"), "load dataset");
  }();
  p.load_s = NowS() - t;

  t = NowS();
  CubeStore built = [&] {
    Scope s(spans, "cube.build");
    return OrDie(opmap::CubeBuilder::FromDataset(data), "cube build");
  }();
  p.build_s = NowS() - t;
  t = NowS();
  {
    Scope s(spans, "cube.save");
    CheckOk(built.SaveToFile("cubes.opmc"), "save cubes");
  }
  p.save_s = NowS() - t;

  opmap::RuleSet rules;
  {
    Scope s(spans, "car.mine");
    p.mine_s = TimedMine(data, sheet, &rules);
  }
  ++sheet->attempted;
  if (const int64_t bad = CheckRules(rules, built); bad > 0) {
    ++sheet->failed;
    sheet->Mismatch(std::to_string(bad) +
                    " mined rule supports differ from the cube cells");
  }
  if (rules.empty()) sheet->Mismatch("mining produced no rules");

  p.report_s = Report(sheet, spans, &p.first_answer_s);
  p.wall_s = NowS() - t_pass;
  return p;
}

// In-process analyst queries over the saved cubes: uncached compares
// drawn uniformly from every usable spec, back to back on `threads`
// threads for `seconds`. Returns per-query latencies (us) and the wall.
std::vector<double> QueryPhase(const CubeStore& store,
                               const std::vector<Key>& keys, int threads,
                               double seconds, uint64_t seed, double* wall_s,
                               Sheet* sheet) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(threads));
  std::vector<int64_t> failed(static_cast<size_t>(threads), 0);
  const double t0 = NowS();
  const double end = t0 + seconds;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(seed, 900 + static_cast<uint64_t>(threads * 8 + t));
      const opmap::Comparator comparator(&store);
      while (NowS() < end) {
        const Key& key = keys[rng.Below(keys.size())];
        const double q0 = NowUs();
        const bool ok = comparator.Compare(SpecOf(key.compare)).ok();
        lat[static_cast<size_t>(t)].push_back(
            NowUs() - q0);
        failed[static_cast<size_t>(t)] += !ok;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  *wall_s = NowS() - t0;
  std::vector<double> all;
  for (int t = 0; t < threads; ++t) {
    all.insert(all.end(), lat[static_cast<size_t>(t)].begin(),
               lat[static_cast<size_t>(t)].end());
    sheet->failed += failed[static_cast<size_t>(t)];
  }
  sheet->attempted += static_cast<int64_t>(all.size());
  return all;
}

// Build seconds of `data` (median of two), for the paper-shape fits.
double BuildSeconds(const Dataset& data) {
  std::vector<double> t;
  for (int i = 0; i < 2; ++i) {
    const double t0 = NowS();
    OrDie(opmap::CubeBuilder::FromDataset(data), "shape build");
    t.push_back(NowS() - t0);
  }
  return Median(t);
}

// Median uncached compare time (us) over a fixed seeded spec sample.
double CompareMicros(const CubeStore& store, uint64_t seed) {
  const std::vector<Key> keys = CompareKeys(store);
  const opmap::Comparator comparator(&store);
  Rng rng(seed, 950);
  std::vector<double> us;
  for (int i = 0; i < 300; ++i) {
    const Key& key = keys[rng.Below(keys.size())];
    const double t0 = NowUs();
    (void)comparator.Compare(SpecOf(key.compare));
    us.push_back(NowUs() - t0);
  }
  return Median(us);
}

// The traced run: per-layer spans of one pass, their reconciliation with
// the pass wall, tracing overhead against an untraced pass, first touch,
// uncached compare costs and the paper's scaling shapes.
void TracedRun(const RunArgs& args, Sheet* sheet) {
  // Untraced and traced passes alternate; the overhead is the median of
  // their differences. The layer metrics come from the last traced pass.
  RunPass(sheet, nullptr);  // warms the page cache and allocator
  std::vector<double> overhead_s;
  Spans spans;
  Pass traced;
  double rules = 0, cand = 0;
  int64_t rows0 = 0;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const Pass untraced = RunPass(sheet, nullptr);
    spans = Spans();
    rows0 = CounterValue("cube.rows_counted");
    const int64_t rules0 = CounterValue("car.rules_emitted");
    const int64_t cand0 = CounterValue("car.candidates_evaluated");
    traced = RunPass(sheet, &spans);
    rules = static_cast<double>(CounterValue("car.rules_emitted") - rules0);
    cand = static_cast<double>(CounterValue("car.candidates_evaluated") - cand0);
    overhead_s.push_back(traced.wall_s - untraced.wall_s);
  }

  sheet->Set("data.load_s", spans.Total("data.load"));
  sheet->Set("cube.build_s", spans.Total("cube.build"));
  sheet->Set("cube.build_cpu_s", spans.TotalCpu("cube.build"));
  sheet->Set("cube.rows_counted",
             static_cast<double>(CounterValue("cube.rows_counted") - rows0));
  sheet->Set("cube.save_s", spans.Total("cube.save"));
  sheet->Set("cube.bytes_written",
             static_cast<double>(std::filesystem::file_size("cubes.opmc")));
  sheet->Set("cube.load_s", spans.Total("cube.load"));
  sheet->Set("car.mine_s", spans.Total("car.mine"));
  sheet->Set("car.mine_cpu_s", spans.TotalCpu("car.mine"));
  sheet->Set("car.rules_per_candidate", cand > 0 ? rules / cand : 0.0);
  sheet->Set("gi.pass_s", spans.Total("gi.pass"));
  std::vector<double> sweeps;
  for (const Spans::Span& s : spans.spans()) {
    if (s.name == "compare.all_pairs") sweeps.push_back((s.end_s - s.start_s) * 1e6);
  }
  sheet->Set("compare.all_pairs_us.p50", Percentile(sweeps, 0.5));
  sheet->Set("compare.all_pairs_us.p99", Percentile(sweeps, 0.99));
  sheet->Set("trace.gap_s", traced.wall_s - spans.TopLevelTotal());
  sheet->Set("trace.overhead_s", Median(overhead_s));

  const CubeStore store =
      OrDie(CubeStore::LoadFromFile("cubes.opmc"), "mapped load");
  sheet->Set("cube.first_touch_s", TouchEveryCube(store));
  const std::vector<Key> keys = CompareKeys(store);
  double wall = 0;
  const std::vector<double> spec_us =
      QueryPhase(store, keys, 1, 0.5, args.seed, &wall, sheet);
  sheet->Set("compare.spec_us.p50", Percentile(spec_us, 0.5));
  sheet->Set("compare.spec_us.p99", Percentile(spec_us, 0.99));

  // Fig 11 and §V.C: build and compare cost against records, all attributes.
  const Dataset data = OrDie(opmap::LoadDatasetFromFile("data.opmd"), "load");
  std::vector<double> sizes, build_s, compare_us;
  for (int64_t rows : {kRows / 4, kRows / 2, kRows}) {
    const Dataset part = SliceRows(data, 0, rows);
    sizes.push_back(static_cast<double>(rows));
    build_s.push_back(BuildSeconds(part));
    const CubeStore s =
        OrDie(opmap::CubeBuilder::FromDataset(part), "shape build");
    compare_us.push_back(CompareMicros(s, args.seed));
  }
  sheet->Set("cube.records_exponent", FitExponent(sizes, build_s));
  sheet->Set("compare.records_exponent", FitExponent(sizes, compare_us));
  // Fig 10: build cost against attributes at a quarter of the records.
  std::vector<double> attrs, attr_build_s;
  for (int n : {kAttrs / 4, kAttrs / 2, kAttrs}) {
    const Dataset part = MakeCallLog(n, kRows / 4, args.seed);
    attrs.push_back(static_cast<double>(n));
    attr_build_s.push_back(BuildSeconds(part));
  }
  sheet->Set("cube.attrs_exponent", FitExponent(attrs, attr_build_s));
}

}  // namespace

void RunOfflineBuild(const RunArgs& args, Sheet* sheet) {
  // Untimed preparation: the day's records land as a dataset file.
  {
    const Dataset data = MakeCallLog(kAttrs, kRows, args.seed);
    CheckOk(opmap::SaveDatasetToFile(data, "data.opmd"), "save dataset");
  }
  ResetPeakRss();
  if (args.trace) {
    TracedRun(args, sheet);
    return;
  }

  // Rounds until the run's time is up: one whole pass, then the analyst's
  // queries over the saved cubes (latency on one thread, throughput on
  // four). Medians over rounds; p50 pools the latencies, p99 is windowed.
  const double t_start = NowS();
  std::vector<Pass> passes;
  std::vector<double> lat, peak, report_s;
  while (passes.empty() || NowS() - t_start < 0.9 * args.seconds) {
    passes.push_back(RunPass(sheet, nullptr));
    // The report is the shortest step of a pass; a second one per round
    // halves its sampling noise.
    double first_answer_s = 0;
    report_s.push_back(passes.back().report_s);
    report_s.push_back(Report(sheet, nullptr, &first_answer_s));
    const CubeStore store =
        OrDie(CubeStore::LoadFromFile("cubes.opmc"), "mapped load");
    const std::vector<Key> keys = CompareKeys(store);
    const uint64_t round = passes.size();
    double wall = 0;
    const std::vector<double> one = QueryPhase(
        store, keys, 1, kQueryShare * args.seconds, args.seed + round, &wall,
        sheet);
    lat.insert(lat.end(), one.begin(), one.end());
    const std::vector<double> four =
        QueryPhase(store, keys, kQueryThreads, kQueryShare * args.seconds,
                   args.seed + round, &wall, sheet);
    peak.push_back(static_cast<double>(four.size()) / wall);
  }
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(field(p));
    return Median(v);
  };
  const double rows = static_cast<double>(kRows);
  sheet->Set("setup_s", median_of([](const Pass& p) { return p.load_s; }));
  sheet->Set("build_rows_per_s",
             rows / median_of([](const Pass& p) { return p.build_s + p.save_s; }));
  sheet->Set("mine_rows_per_s",
             rows / median_of([](const Pass& p) { return p.mine_s; }));
  sheet->Set("report_s", Median(report_s));
  sheet->Set("ingest_rows_per_s",
             rows / median_of([](const Pass& p) {
               return p.load_s + p.build_s + p.save_s;
             }));
  sheet->Set("freshness_ms", 1e3 * median_of([](const Pass& p) {
                               return p.load_s + p.build_s + p.save_s +
                                      p.first_answer_s;
                             }));
  sheet->Set("p50_us", Percentile(lat, 0.5));
  sheet->Set("p99_us", WindowedPercentile(lat, 0.99, kTailWindow));
  sheet->Set("peak_qps", Median(peak));
  sheet->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
