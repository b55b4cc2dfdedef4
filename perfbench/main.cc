// perfbench: the repository benchmark's workload binary. run.py builds it
// and calls
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --workdir=DIR
//
// It runs one workload inside DIR (removed afterwards), prints a host
// stamp line, and as its last line one JSON object with every metric the
// workload measured; run.py names and checks them against BENCHMARK.json.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "opmap/car/miner.h"
#include "opmap/data/call_log.h"
#include "perfbench/workloads.h"

namespace perfbench {

opmap::Dataset MakeCallLog(int num_attributes, int64_t num_records,
                           uint64_t seed) {
  opmap::CallLogConfig config;
  config.num_records = num_records;
  config.num_attributes = num_attributes;
  config.num_phone_models = 10;
  config.num_property_attributes = 1;
  config.phone_drop_multiplier = {1.0, 1.0, 1.6};
  config.effects.push_back(opmap::PlantedEffect{
      "TimeOfCall", "morning", /*phone_model=*/2,
      opmap::kDroppedWhileInProgress, 6.0});
  config.seed = seed;
  return OrDie(opmap::CallLogGenerator::Make(config), "call-log config")
      .Generate();
}

opmap::Dataset SliceRows(const opmap::Dataset& data, int64_t begin,
                         int64_t end) {
  opmap::Dataset out(data.schema());
  out.Reserve(end - begin);
  std::vector<opmap::ValueCode> codes(
      static_cast<size_t>(data.num_attributes()));
  for (int64_t row = begin; row < end; ++row) {
    for (int a = 0; a < data.num_attributes(); ++a) {
      codes[static_cast<size_t>(a)] = data.code(row, a);
    }
    out.AppendRowUnchecked(codes.data());
  }
  return out;
}

double TimedMine(const opmap::Dataset& data, Sheet* sheet,
                 opmap::RuleSet* rules) {
  opmap::CarMinerOptions options;
  options.min_support = 0.01;
  options.max_conditions = 2;
  const double t0 = NowS();
  opmap::Result<opmap::RuleSet> mined =
      opmap::MineClassAssociationRules(data, options);
  const double seconds = NowS() - t0;
  ++sheet->attempted;
  if (!mined.ok()) {
    ++sheet->failed;
  } else if (rules != nullptr) {
    *rules = std::move(mined).MoveValue();
  }
  return seconds;
}

}  // namespace perfbench

namespace {

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.workload = Flag(argc, argv, "workload");
  args.seed = std::strtoull(Flag(argc, argv, "seed").c_str(), nullptr, 10);
  args.seconds = std::strtod(Flag(argc, argv, "seconds").c_str(), nullptr);
  args.trace = Flag(argc, argv, "trace") == "1";
  args.opmap_cli = PERFBENCH_OPMAP_CLI;
  const std::string workdir = Flag(argc, argv, "workdir");
  if (workdir.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --workdir=DIR\n");
    return 2;
  }
  if (args.workload != "offline_build" && args.workload != "serve_hot" &&
      args.workload != "serve_cold" && args.workload != "ingest_live") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  const std::filesystem::path home = std::filesystem::current_path();
  std::filesystem::current_path(workdir);

  const HostStamp host = StampHost();
  std::printf(
      "{\"host\": {\"nproc\": %d, \"effective_cores\": %.3f, \"simd\": "
      "\"%s\", \"kernel\": \"%s\"}}\n",
      host.nproc, host.effective_cores, host.simd.c_str(), host.kernel.c_str());
  std::fflush(stdout);

  Sheet sheet;
  if (args.workload == "offline_build") {
    RunOfflineBuild(args, &sheet);
  } else if (args.workload == "serve_hot") {
    RunServe(args, /*cold=*/false, &sheet);
  } else if (args.workload == "serve_cold") {
    RunServe(args, /*cold=*/true, &sheet);
  } else {
    RunIngestLive(args, &sheet);
  }
  if (args.trace) sheet.Set("host.effective_cores", host.effective_cores);

  std::filesystem::current_path(home);
  std::filesystem::remove_all(workdir);

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              sheet.correct ? "true" : "false",
              static_cast<long long>(sheet.attempted),
              static_cast<long long>(sheet.failed));
  const char* sep = "";
  for (const auto& [name, value] : sheet.metrics) {
    if (!std::isfinite(value)) continue;  // unmeasured; run.py reports it
    std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
