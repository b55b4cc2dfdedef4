// Checks the benchmark's exact nearest-rank percentile against a sorted
// oracle on seeded samples, and the exponent fit on exact power laws.
// Exits non-zero on the first disagreement.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::fprintf(stderr, "selftest: %s: got %.9g want %.9g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  Rng rng(12345, 0);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) values.push_back(std::floor(rng.Uniform() * 1000));
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      // Oracle: the smallest sample value v with #{x <= v} >= q * n.
      double want = sorted.front();
      for (double v : sorted) {
        const double at_or_below = static_cast<double>(
            std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
        if (at_or_below >= q * static_cast<double>(n)) {
          want = v;
          break;
        }
      }
      const double got = Percentile(values, q);
      Expect(got == want, "nearest-rank percentile", got, want);
    }
  }
  Expect(Percentile({}, 0.5) == 0.0, "empty sample", Percentile({}, 0.5), 0.0);
  // Windows of 100: three calm windows whose p99 is 99 and one stalled
  // window whose p99 is 5000; the median window ignores the stall. The
  // trailing 50 samples fold into the last window.
  std::vector<double> ordered;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 100; ++i) ordered.push_back(w == 2 && i > 90 ? 5000 : i);
  }
  for (int i = 0; i < 50; ++i) ordered.push_back(1);
  const double windowed = WindowedPercentile(ordered, 0.99, 100);
  Expect(windowed == 99, "windowed p99", windowed, 99);
  for (double b : {0.0, 1.0, 2.0}) {
    std::vector<double> x = {1e4, 2e4, 4e4}, y;
    for (double xi : x) y.push_back(3.0 * std::pow(xi, b));
    const double got = FitExponent(x, y);
    Expect(std::fabs(got - b) < 1e-9, "power-law exponent", got, b);
  }
  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
