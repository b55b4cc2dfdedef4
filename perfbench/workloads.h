// The four workloads. Each fills a Sheet with every end-to-end metric
// (untraced run) or every per-layer metric it exercises (traced run);
// run.py names the metrics and their units from BENCHMARK.json.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "opmap/car/rule.h"
#include "opmap/data/dataset.h"
#include "perfbench/harness.h"

namespace perfbench {

// The call-log generator of the repository's benchmarks (a bad phone with
// a planted morning drop effect plus one property attribute), seeded.
opmap::Dataset MakeCallLog(int num_attributes, int64_t num_records,
                           uint64_t seed);

// Copies rows [begin, end) of `data` into a new dataset.
opmap::Dataset SliceRows(const opmap::Dataset& data, int64_t begin,
                         int64_t end);

// CAR mining as the analyst runs it (min_support 0.01, at most two
// conditions); returns the wall seconds and counts the operation in
// `sheet`. Writes the rules to `rules` when given.
double TimedMine(const opmap::Dataset& data, Sheet* sheet,
                 opmap::RuleSet* rules = nullptr);

void RunOfflineBuild(const RunArgs& args, Sheet* sheet);
void RunServe(const RunArgs& args, bool cold, Sheet* sheet);
void RunIngestLive(const RunArgs& args, Sheet* sheet);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
