// Google-benchmark micro-benchmarks for the per-operation costs behind the
// paper's figures: cube construction per record (Figs 10/11), comparison
// per attribute (Fig 9), OLAP operations, CAR mining and discretization.

#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_util.h"
#include "opmap/car/miner.h"
#include "opmap/compare/comparator.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/call_log.h"
#include "opmap/data/dataset_io.h"
#include "opmap/discretize/methods.h"
#include "opmap/gi/exceptions.h"
#include "opmap/gi/influence.h"
#include "opmap/gi/trend.h"

namespace opmap {
namespace {

Dataset MakeData(int attrs, int64_t records) {
  CallLogGenerator gen = bench::ValueOrDie(
      CallLogGenerator::Make(bench::StandardWorkload(attrs, records)),
      "generator");
  return gen.Generate();
}

// --- Cube building (the Fig 10/11 hot loop). ---
void BM_CubeBuildPerRecord(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  Dataset d = MakeData(attrs, 20000);
  for (auto _ : state) {
    CubeStore store =
        bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
    benchmark::DoNotOptimize(store.num_records());
  }
  state.SetItemsProcessed(state.iterations() * d.num_rows());
}
BENCHMARK(BM_CubeBuildPerRecord)->Arg(20)->Arg(40)->Arg(80);

// --- The comparator (the Fig 9 interactive path). ---
void BM_Compare(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  Dataset d = MakeData(attrs, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  Comparator comparator(&store);
  ComparisonSpec spec;
  spec.attribute = 0;
  spec.value_a = 0;
  spec.value_b = 2;
  spec.target_class = kDroppedWhileInProgress;
  for (auto _ : state) {
    auto r = comparator.Compare(spec);
    benchmark::DoNotOptimize(r->ranked.size());
  }
  state.SetItemsProcessed(state.iterations() * attrs);
}
BENCHMARK(BM_Compare)->Arg(40)->Arg(80)->Arg(160);

// --- OLAP operations on a 3-D rule cube. ---
void BM_CubeSlice(benchmark::State& state) {
  Dataset d = MakeData(20, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  const RuleCube* pair = bench::ValueOrDie(store.PairCube(0, 1), "pair");
  for (auto _ : state) {
    auto sliced = pair->Slice(0, 0);
    benchmark::DoNotOptimize(sliced->Total());
  }
}
BENCHMARK(BM_CubeSlice);

void BM_CubeMarginalize(benchmark::State& state) {
  Dataset d = MakeData(20, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  const RuleCube* pair = bench::ValueOrDie(store.PairCube(0, 1), "pair");
  for (auto _ : state) {
    auto rolled = pair->Marginalize(1);
    benchmark::DoNotOptimize(rolled->Total());
  }
}
BENCHMARK(BM_CubeMarginalize);

// --- CAR mining (zero-threshold two-condition space vs pruned). ---
void BM_CarMining(benchmark::State& state) {
  Dataset d = MakeData(12, 10000);
  CarMinerOptions opts;
  opts.min_support = static_cast<double>(state.range(0)) / 10000.0;
  opts.max_conditions = 2;
  for (auto _ : state) {
    auto rules = MineClassAssociationRules(d, opts);
    benchmark::DoNotOptimize(rules->size());
  }
  state.SetItemsProcessed(state.iterations() * d.num_rows());
}
BENCHMARK(BM_CarMining)->Arg(0)->Arg(100);

// --- Discretizers. ---
void BM_Discretize(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  std::vector<double> values;
  std::vector<ValueCode> classes;
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng.NextGaussian() * 20.0 - 80.0);
    classes.push_back(rng.NextBernoulli(values.back() < -90 ? 0.2 : 0.02)
                          ? 1
                          : 0);
  }
  EqualWidthDiscretizer ew(8);
  EqualFrequencyDiscretizer ef(8);
  EntropyMdlDiscretizer mdl;
  const Discretizer* d = which == 0 ? static_cast<const Discretizer*>(&ew)
                         : which == 1
                             ? static_cast<const Discretizer*>(&ef)
                             : static_cast<const Discretizer*>(&mdl);
  for (auto _ : state) {
    auto cuts = d->ComputeCuts(values, classes, 2);
    benchmark::DoNotOptimize(cuts->size());
  }
  state.SetLabel(d->name());
}
BENCHMARK(BM_Discretize)->Arg(0)->Arg(1)->Arg(2);

// --- GI mining. ---
void BM_MineTrends(benchmark::State& state) {
  Dataset d = MakeData(40, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  TrendOptions opts;
  opts.ordered_attributes_only = false;
  for (auto _ : state) {
    auto trends = MineTrends(store, opts);
    benchmark::DoNotOptimize(trends->size());
  }
}
BENCHMARK(BM_MineTrends);

void BM_RankInfluence(benchmark::State& state) {
  Dataset d = MakeData(40, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  for (auto _ : state) {
    auto ranking = RankInfluentialAttributes(store);
    benchmark::DoNotOptimize(ranking->size());
  }
}
BENCHMARK(BM_RankInfluence);

// --- Dataset-scan comparison (what the system would cost without rule
// cubes; contrast with BM_Compare). ---
void BM_CompareFromDatasetScan(benchmark::State& state) {
  Dataset d = MakeData(20, 20000);
  ComparisonSpec spec;
  spec.attribute = 0;
  spec.value_a = 0;
  spec.value_b = 2;
  spec.target_class = kDroppedWhileInProgress;
  for (auto _ : state) {
    auto r = CompareFromDataset(d, spec);
    benchmark::DoNotOptimize(r->ranked.size());
  }
}
BENCHMARK(BM_CompareFromDatasetScan);

// --- Group / vs-rest comparison variants. ---
void BM_CompareVsRest(benchmark::State& state) {
  Dataset d = MakeData(40, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  Comparator comparator(&store);
  for (auto _ : state) {
    auto r = comparator.CompareVsRest(0, 2, kDroppedWhileInProgress);
    benchmark::DoNotOptimize(r->ranked.size());
  }
}
BENCHMARK(BM_CompareVsRest);

void BM_CompareAllPairs(benchmark::State& state) {
  Dataset d = MakeData(20, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  Comparator comparator(&store);
  for (auto _ : state) {
    auto r = comparator.CompareAllPairs(0, kDroppedWhileInProgress, 30);
    benchmark::DoNotOptimize(r->size());
  }
}
BENCHMARK(BM_CompareAllPairs);

// --- Persistence throughput. ---
void BM_CubeStoreSaveLoad(benchmark::State& state) {
  Dataset d = MakeData(40, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  for (auto _ : state) {
    std::ostringstream buf;
    bench::CheckOk(store.Save(&buf), "save");
    auto loaded = CubeStore::LoadFromBytes(buf.str());
    benchmark::DoNotOptimize(loaded->num_records());
  }
  state.SetBytesProcessed(state.iterations() * store.MemoryUsageBytes());
}
BENCHMARK(BM_CubeStoreSaveLoad);

void BM_DatasetSaveLoad(benchmark::State& state) {
  Dataset d = MakeData(20, 20000);
  for (auto _ : state) {
    std::ostringstream buf;
    bench::CheckOk(SaveDataset(d, &buf), "save");
    auto loaded = LoadDatasetFromBytes(buf.str());
    benchmark::DoNotOptimize(loaded->num_rows());
  }
  state.SetBytesProcessed(state.iterations() * d.MemoryUsageBytes());
}
BENCHMARK(BM_DatasetSaveLoad);

// --- Exception mining with and without FDR control. ---
void BM_MineExceptions(benchmark::State& state) {
  Dataset d = MakeData(40, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  ExceptionOptions opts;
  if (state.range(0) == 1) {
    opts.fdr = 0.05;
  }
  for (auto _ : state) {
    auto cells = MineAttributeExceptions(store, opts);
    benchmark::DoNotOptimize(cells->size());
  }
  state.SetLabel(state.range(0) == 1 ? "BH-FDR" : "raw-threshold");
}
BENCHMARK(BM_MineExceptions)->Arg(0)->Arg(1);

// --- OLAP session operations. ---
void BM_SessionDrillSliceBack(benchmark::State& state) {
  Dataset d = MakeData(20, 20000);
  CubeStore store = bench::ValueOrDie(CubeBuilder::FromDataset(d), "build");
  ExplorationSession session(&store);
  bench::CheckOk(session.OpenAttribute("PhoneModel"), "open");
  for (auto _ : state) {
    bench::CheckOk(session.DrillDown("TimeOfCall"), "drill");
    bench::CheckOk(session.Slice("PhoneModel", "ph03"), "slice");
    bench::CheckOk(session.Back(), "back");
    bench::CheckOk(session.Back(), "back");
  }
}
BENCHMARK(BM_SessionDrillSliceBack);

}  // namespace
}  // namespace opmap
