#ifndef OPMAP_COMMON_METRICS_H_
#define OPMAP_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace opmap {

/// Monotonically increasing event count. Increment is a single relaxed
/// atomic add, so counters can live on hot paths as long as they are
/// bumped per pass / per query, never per row.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written instantaneous value (pool size, mapped bytes).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is higher (high-water marks).
  void SetMax(int64_t value) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < value &&
           !value_.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket log-scale latency histogram. Bucket i holds values whose
/// bit width is i: bucket 0 is exactly {0}, bucket i >= 1 covers
/// [2^(i-1), 2^i - 1]. Values are typically microseconds; negative values
/// clamp to 0. Recording is two relaxed atomic adds — safe under
/// concurrent writers, and percentile extraction tolerates concurrent
/// recording (it reads a relaxed snapshot).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// Estimated value at percentile `p` (0..100): the rank-holding bucket's
  /// range, linearly interpolated by rank position within the bucket. The
  /// estimate always lands in the same log2 bucket as the true value, so
  /// the relative error is bounded by 2x. Returns 0 for an empty
  /// histogram.
  double Percentile(double p) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// Point-in-time copy of every registered metric, for printing or for the
/// daemon's stats reply.
struct MetricsSnapshot {
  struct HistogramStats {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// Process-wide metric namespace. Registration is get-or-create by name
/// and returns a stable pointer, so hot call sites cache it once:
///
///   static Counter* const rows =
///       MetricsRegistry::Global()->counter("cube.rows_counted");
///   rows->Increment(n);
///
/// Names are dot-separated `layer.metric` (see docs/OBSERVABILITY.md for
/// the catalog). Thread-safe; metric objects are never deleted.
class MetricsRegistry {
 public:
  /// The process-wide registry. The per-query-class latency histograms
  /// (query.compare_us, query.gi_us, query.render_us, query.mine_us) are
  /// pre-registered so callers can rely on the handles existing; the
  /// formatters drop the unexercised ones when
  /// MetricsFormatOptions::skip_zero_histograms is set.
  static MetricsRegistry* Global();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (objects stay registered, pointers
  /// stay valid). Tests only.
  void ResetForTest();

  MetricsRegistry();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Rendering knobs shared by the table and JSON formatters.
struct MetricsFormatOptions {
  /// Omit histograms whose count is 0. The registry pre-registers the
  /// query.*_us class histograms so they exist even in runs that never
  /// exercise them; with this set, such all-zero rows are dropped instead
  /// of bloating --stats output and every daemon stats reply.
  bool skip_zero_histograms = false;
};

/// Human-readable stats table (the --stats output). Zero-valued counters
/// and gauges are elided; histograms print per `options`.
std::string FormatMetricsTable(const MetricsSnapshot& snapshot,
                               const MetricsFormatOptions& options = {});

/// Flat single-line JSON object: counters and gauges by name, histograms
/// as name.count / name.p50 / name.p99. The body of the daemon's stats
/// reply.
std::string FormatMetricsJson(const MetricsSnapshot& snapshot,
                              const MetricsFormatOptions& options = {});

}  // namespace opmap

#endif  // OPMAP_COMMON_METRICS_H_
