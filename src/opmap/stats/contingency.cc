#include "opmap/stats/contingency.h"

#include <math.h>

#include <algorithm>
#include <cmath>

namespace opmap {

int64_t ContingencyTable::RowTotal(int r) const {
  int64_t t = 0;
  for (int c = 0; c < cols_; ++c) t += at(r, c);
  return t;
}

int64_t ContingencyTable::ColTotal(int c) const {
  int64_t t = 0;
  for (int r = 0; r < rows_; ++r) t += at(r, c);
  return t;
}

int64_t ContingencyTable::Total() const {
  int64_t t = 0;
  for (int r = 0; r < rows_; ++r) t += RowTotal(r);
  return t;
}

double ChiSquareStatistic(const ContingencyTable& table) {
  const double n = static_cast<double>(table.Total());
  if (n <= 0) return 0.0;
  std::vector<double> row_totals(static_cast<size_t>(table.rows()));
  std::vector<double> col_totals(static_cast<size_t>(table.cols()));
  for (int r = 0; r < table.rows(); ++r) {
    row_totals[static_cast<size_t>(r)] =
        static_cast<double>(table.RowTotal(r));
  }
  for (int c = 0; c < table.cols(); ++c) {
    col_totals[static_cast<size_t>(c)] =
        static_cast<double>(table.ColTotal(c));
  }
  double stat = 0;
  for (int r = 0; r < table.rows(); ++r) {
    for (int c = 0; c < table.cols(); ++c) {
      const double expected = row_totals[static_cast<size_t>(r)] *
                              col_totals[static_cast<size_t>(c)] / n;
      if (expected <= 0) continue;
      const double diff = static_cast<double>(table.at(r, c)) - expected;
      stat += diff * diff / expected;
    }
  }
  return stat;
}

namespace {

// Regularized upper incomplete gamma Q(a, x) via series / continued
// fraction (Numerical Recipes style). Accurate enough for p-values.
double GammaQ(double a, double x) {
  if (x < 0 || a <= 0) return 1.0;
  if (x == 0) return 1.0;
  // lgamma_r, not std::lgamma: the latter also writes glibc's global
  // `signgam`, a data race when GI requests run on concurrent threads.
  // Same routine, so the result is bit-identical.
  int sign = 0;
  const double gln = ::lgamma_r(a, &sign);
  if (x < a + 1.0) {
    // Series for P(a,x), return 1 - P.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-14) break;
    }
    const double p = sum * std::exp(-x + a * std::log(x) - gln);
    return std::clamp(1.0 - p, 0.0, 1.0);
  }
  // Continued fraction for Q(a,x).
  const double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-14) break;
  }
  const double q = std::exp(-x + a * std::log(x) - gln) * h;
  return std::clamp(q, 0.0, 1.0);
}

}  // namespace

double ChiSquarePValue(double statistic, int df) {
  if (df <= 0) return 1.0;
  return GammaQ(static_cast<double>(df) / 2.0, statistic / 2.0);
}

double CramersV(const ContingencyTable& table) {
  const double n = static_cast<double>(table.Total());
  if (n <= 0) return 0.0;
  const int k = std::min(table.rows(), table.cols());
  if (k < 2) return 0.0;
  const double chi2 = ChiSquareStatistic(table);
  return std::sqrt(chi2 / (n * static_cast<double>(k - 1)));
}

double EntropyBits(const std::vector<int64_t>& counts) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total <= 0) return 0.0;
  double h = 0;
  for (int64_t c : counts) {
    if (c <= 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

double InformationGainBits(const ContingencyTable& table) {
  const int64_t n = table.Total();
  if (n <= 0) return 0.0;
  std::vector<int64_t> class_counts(static_cast<size_t>(table.cols()));
  for (int c = 0; c < table.cols(); ++c) {
    class_counts[static_cast<size_t>(c)] = table.ColTotal(c);
  }
  double h = EntropyBits(class_counts);
  for (int r = 0; r < table.rows(); ++r) {
    const int64_t nr = table.RowTotal(r);
    if (nr <= 0) continue;
    std::vector<int64_t> row(static_cast<size_t>(table.cols()));
    for (int c = 0; c < table.cols(); ++c) {
      row[static_cast<size_t>(c)] = table.at(r, c);
    }
    h -= static_cast<double>(nr) / static_cast<double>(n) * EntropyBits(row);
  }
  return std::max(0.0, h);
}

}  // namespace opmap
