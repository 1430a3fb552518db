#ifndef DATAMARAN_BENCH_E2E_STATS_H_
#define DATAMARAN_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

/// Order statistics for the end-to-end benchmark. Quantiles interpolate
/// linearly between the two nearest order statistics (the "type 7"
/// definition), so a quantile of one sample is that sample.

namespace datamaran::e2e {

inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace datamaran::e2e

#endif  // DATAMARAN_BENCH_E2E_STATS_H_
