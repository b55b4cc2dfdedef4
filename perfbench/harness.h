// Shared pieces of the repository benchmark: run arguments, clocks,
// exact percentiles, seeded random draws, the metric sheet each workload
// fills, an in-memory span recorder, the spawned `opmap serve` daemon,
// and the host stamp.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "opmap/common/status.h"
#include "opmap/server/client.h"

namespace perfbench {

// The benchmark is a binary: a failed call into the program that is not a
// measured operation ends the run with a message and no result line.
void CheckOk(const opmap::Status& status, const char* what);

template <typename T>
T OrDie(opmap::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).MoveValue();
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string opmap_cli;  // path of the `opmap` binary (daemon)
};

// ------------------------------ clocks -------------------------------------

double NowS();      // steady clock, seconds
double NowUs();     // steady clock, microseconds
double CpuS();      // CPU time of this process (all threads), seconds

// ---------------------------- statistics -----------------------------------

// Nearest-rank percentile of an ascending-sorted sample: the smallest
// value with at least q of the sample at or below it. q in [0, 1];
// an empty sample gives 0.
double NearestRank(const std::vector<double>& sorted, double q);
// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Tail percentile robust to a stall in one stretch of a run: the median
// over consecutive windows of `window` samples (in time order) of each
// window's exact nearest-rank percentile q. A trailing partial window is
// folded into the last full one.
double WindowedPercentile(const std::vector<double>& ordered, double q,
                          size_t window);
// Least-squares slope of log(y) against log(x): the exponent b of y ~ x^b.
double FitExponent(const std::vector<double>& x, const std::vector<double>& y);

// ------------------------------ randomness ---------------------------------

// splitmix64: every schedule and key sequence derives from (seed, stream).
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();
  double Uniform();                 // [0, 1)
  double Exp(double mean);          // exponential inter-arrival
  size_t Below(size_t n);           // uniform in [0, n)
 private:
  uint64_t state_;
};

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;
 private:
  std::vector<double> cdf_;
};

// FNV-1a 64 of a byte string: served bodies are compared with the
// in-process encoding by this digest.
uint64_t Digest(const std::string& bytes);

// ------------------------------ metric sheet -------------------------------

// What one run reports. Workloads set metrics by name; main() prints the
// set BENCHMARK.json declares for the run's mode.
struct Sheet {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  // Records a correctness failure (the run reports correct=false).
  void Mismatch(const std::string& what);
};

// ------------------------------- tracing -----------------------------------

// Layer spans recorded from the benchmark's own code around its calls into
// the program, kept in memory. Self time of a span is its duration minus
// the part covered by its children.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    double cpu_s = 0;  // process CPU time spent inside the span
    int parent = -1;
  };
  int Begin(const std::string& name);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Sum of the durations of top-level spans named `name` (all if empty).
  double Total(const std::string& name) const;
  double TotalCpu(const std::string& name) const;
  double TopLevelTotal() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it free.
class Scope {
 public:
  Scope(Spans* spans, const std::string& name)
      : spans_(spans), id_(spans ? spans->Begin(name) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

// Value of a counter in this process's metrics registry (counts the
// program records at its own layer boundaries).
int64_t CounterValue(const char* name);

// ------------------------------- memory ------------------------------------

// Resets this process's peak-RSS high-water mark to its current RSS, so
// data preparation is not charged to the program.
void ResetPeakRss();
// Peak RSS (VmHWM) of `pid` in MB; 0 = this process.
double PeakRssMb(pid_t pid = 0);

// ------------------------------- daemon ------------------------------------

// One `opmap serve` process over a cube container, on a unix socket in the
// current directory. The destructor stops it (SIGTERM, then waits).
class Daemon {
 public:
  static opmap::Result<std::unique_ptr<Daemon>> Start(
      const RunArgs& args, const std::string& cubes_path,
      const std::string& socket_name);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& address() const { return address_; }
  // Seconds from spawn until the first OK schema reply.
  double ready_s() const { return ready_s_; }
  pid_t pid() const { return pid_; }
  // Graceful stop; returns false if the daemon exited non-zero.
  bool Stop();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  std::string address_;
  double ready_s_ = 0;
};

opmap::Result<std::unique_ptr<opmap::server::Client>> Connect(
    const std::string& address);

// Pulls one numeric field out of the daemon's flat stats JSON; 0 if absent.
double StatsField(const std::string& stats_json, const std::string& name);

// ------------------------------- host --------------------------------------

struct HostStamp {
  int nproc = 1;
  double effective_cores = 1.0;
  std::string simd;
  std::string kernel;
};
// Calibrates effective cores with a short CPU burner at 1 and nproc threads.
HostStamp StampHost();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
