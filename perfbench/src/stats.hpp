// Order statistics used by every metric the benchmark prints. Quartiles
// follow Python's statistics.quantiles(data, n=4) (the "exclusive" method),
// so a spread computed here matches one computed over the printed values.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// {Q1, median, Q3}; needs at least two values.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles of < 2 values");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// (Q3 - Q1) / median: the run-to-run spread a bound is compared against.
inline double relative_spread(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return (q[2] - q[0]) / q[1];
}

/// Nearest-rank percentile `p` (0 < p < 1), reported only when at least
/// `min_beyond` samples lie strictly above it; a tail with fewer samples
/// beyond it says nothing about that tail.
inline std::optional<double> tail_percentile(std::vector<double> v, double p,
                                             std::size_t min_beyond = 10) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const double value = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  const auto beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), value));
  if (beyond < min_beyond) return std::nullopt;
  return value;
}

/// Median over back-to-back pairs of first[i] / second[i]. Both members of
/// a pair ran next to each other, so slow drift of the host cancels in each
/// ratio; unpaired trailing samples are ignored.
inline double paired_ratio_median(const std::vector<double>& first,
                                  const std::vector<double>& second) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(first.size(), second.size()); ++i) {
    ratios.push_back(first[i] / second[i]);
  }
  return median(std::move(ratios));
}

/// Median of repeated timings of `once`, taken in batches of ten until a
/// batch's median is within a tenth of the previous batch's (at most six
/// batches). Set-up costs milliseconds, so one timing says little.
template <typename Fn>
double median_until_repeats(Fn once) {
  std::vector<double> all;
  double previous = -1;
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<double> times;
    for (int i = 0; i < 10; ++i) times.push_back(once());
    const double m = median(times);
    all.insert(all.end(), times.begin(), times.end());
    if (previous > 0 && std::abs(m - previous) <= 0.1 * previous) break;
    previous = m;
  }
  return median(std::move(all));
}

}  // namespace perfbench
