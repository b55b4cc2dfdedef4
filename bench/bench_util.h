#ifndef OPMAP_BENCH_BENCH_UTIL_H_
#define OPMAP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "opmap/common/parallel.h"
#include "opmap/common/status.h"
#include "opmap/common/trace.h"
#include "opmap/data/call_log.h"

namespace opmap::bench {

/// Minimal --key=value flag parser shared by the benchmark binaries.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::string GetString(const std::string& key,
                        const std::string& default_value = "") const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return default_value;
  }

  int64_t GetInt(const std::string& key, int64_t default_value) const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) {
        return std::strtoll(a.c_str() + prefix.size(), nullptr, 10);
      }
    }
    return default_value;
  }

  double GetDouble(const std::string& key, double default_value) const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) {
        return std::strtod(a.c_str() + prefix.size(), nullptr);
      }
    }
    return default_value;
  }

  bool GetBool(const std::string& key, bool default_value) const {
    for (const auto& a : args_) {
      if (a == "--" + key) return true;
      if (a == "--no" + key) return false;
    }
    return default_value;
  }

 private:
  std::vector<std::string> args_;
};

/// Bench timing on the trace layer's monotonic clock (the process-wide
/// time source shared with spans and latency histograms). Stamp a start
/// with MonotonicMicros(), read the elapsed time with these.
inline double MillisSince(int64_t start_us) {
  return static_cast<double>(MonotonicMicros() - start_us) / 1e3;
}

inline double SecondsSince(int64_t start_us) {
  return static_cast<double>(MonotonicMicros() - start_us) / 1e6;
}

/// --threads=N from the flags (0/absent = auto: OPMAP_THREADS env var,
/// else hardware). All parallel paths are bit-identical to serial, so the
/// setting only affects timing.
inline ParallelOptions ThreadsOf(const Flags& flags) {
  ParallelOptions parallel;
  parallel.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  return parallel;
}

/// Aborts with a message if `status` is not OK. Benchmarks are binaries;
/// failing fast with a readable message beats Status plumbing in main().
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).MoveValue();
}

/// The standard synthetic call-log workload used across benchmarks: a bad
/// phone (ph03) with a planted morning drop-rate effect, plus one property
/// attribute. `num_attributes` counts non-class attributes as in the
/// paper's sweeps.
inline CallLogConfig StandardWorkload(int num_attributes,
                                      int64_t num_records) {
  CallLogConfig config;
  config.num_records = num_records;
  config.num_attributes = num_attributes;
  config.num_phone_models = 10;
  config.num_property_attributes = 1;
  config.phone_drop_multiplier = {1.0, 1.0, 1.6};
  config.effects.push_back(PlantedEffect{
      "TimeOfCall", "morning", /*phone_model=*/2,
      kDroppedWhileInProgress, 6.0});
  return config;
}

/// Prints a standard benchmark header so `for b in bench/*; do $b; done`
/// output reads as a report.
inline void PrintHeader(const char* id, const char* title) {
  std::printf("\n");
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

}  // namespace opmap::bench

#endif  // OPMAP_BENCH_BENCH_UTIL_H_
