// Reproduces Fig 9 of the paper: comparison computation time as the number
// of attributes grows (40 / 80 / 120 / 160). The paper reports linear
// growth reaching ~0.8 s at 160 attributes on a 2007 Core2 Quad, and
// stresses that the time is independent of the original data-set size
// because the comparator reads only rule cubes.
//
// Flags: --records=N (default 20000; does NOT affect the comparison time,
//        which is the point), --reps=N (default 50), --threads=N (default
//        auto).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"

namespace opmap {
namespace {

double MeasureComparisonMillis(const CubeStore& store, int reps,
                               const ParallelOptions& parallel) {
  Comparator comparator(&store, parallel);
  ComparisonSpec spec;
  spec.attribute = 0;  // PhoneModel
  spec.value_a = 0;
  spec.value_b = 2;
  spec.target_class = kDroppedWhileInProgress;
  // Warm-up + validation.
  ComparisonResult r =
      bench::ValueOrDie(comparator.Compare(spec), "comparison");
  (void)r;
  // Best of three batches to suppress scheduler/frequency noise.
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch) {
    const int64_t start_us = MonotonicMicros();
    for (int i = 0; i < reps; ++i) {
      auto result = comparator.Compare(spec);
      bench::CheckOk(result.status().ok() ? Status::OK() : result.status(),
                     "comparison");
    }
    best = std::min(best, bench::MillisSince(start_us) / reps);
  }
  return best;
}

void Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const int64_t records = flags.GetInt("records", 20000);
  const int reps = static_cast<int>(flags.GetInt("reps", 50));
  const ParallelOptions parallel = bench::ThreadsOf(flags);

  bench::PrintHeader(
      "Fig 9", "comparison computation time vs number of attributes");
  std::printf("records per store: %lld (comparison reads only rule cubes; "
              "time must not depend on this)\n",
              static_cast<long long>(records));
  std::printf("\n%-12s %-18s %-16s\n", "attributes", "ms per comparison",
              "ms per attribute");

  std::vector<std::pair<int, double>> series;
  for (int attrs : {40, 80, 120, 160}) {
    CallLogGenerator gen = bench::ValueOrDie(
        CallLogGenerator::Make(bench::StandardWorkload(attrs, records)),
        "generator");
    CubeBuilder builder =
        bench::ValueOrDie(CubeBuilder::Make(gen.schema(), {}), "builder");
    gen.VisitRows(records, [&](const ValueCode* row) { builder.AddRow(row); });
    CubeStore store = std::move(builder).Finish();
    const double ms = MeasureComparisonMillis(store, reps, parallel);
    series.emplace_back(attrs, ms);
    std::printf("%-12d %-18.3f %-16.5f\n", attrs, ms, ms / attrs);
  }

  // The paper's Section V.C claim: "the computation time is not affected
  // by the original data set size". Build stores over 4x different record
  // counts at a fixed attribute count and compare comparison times.
  std::printf("\nrecord-count independence (64 attributes):\n");
  std::printf("%-12s %-18s\n", "records", "ms per comparison");
  for (int64_t n : {records / 2, records, records * 4}) {
    CallLogGenerator gen = bench::ValueOrDie(
        CallLogGenerator::Make(bench::StandardWorkload(64, n)), "generator");
    CubeBuilder builder =
        bench::ValueOrDie(CubeBuilder::Make(gen.schema(), {}), "builder");
    gen.VisitRows(n, [&](const ValueCode* row) { builder.AddRow(row); });
    CubeStore store = std::move(builder).Finish();
    std::printf("%-12lld %-18.3f\n", static_cast<long long>(n),
                MeasureComparisonMillis(store, reps, parallel));
  }

  const double slope_first = series[0].second / series[0].first;
  const double slope_last = series.back().second / series.back().first;
  std::printf(
      "\nShape check: paper Fig 9 is linear (0.2 s @ 40 attrs to 0.8 s @ 160\n"
      "attrs on 2007 hardware). Here per-attribute cost stays ~constant\n"
      "(%.5f vs %.5f ms/attr => ratio %.2f, 1.0 = perfectly linear), and\n"
      "the absolute time remains interactive.\n",
      slope_first, slope_last,
      slope_last / (slope_first > 0 ? slope_first : 1.0));
}

}  // namespace
}  // namespace opmap

int main(int argc, char** argv) {
  opmap::Main(argc, argv);
  return 0;
}
