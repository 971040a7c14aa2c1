// Order statistics for the end-to-end benchmark: a latency recorder that
// reports the median, the quartiles and the highest tail percentile that
// still has at least ten samples beyond it, plus the sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace evord::bench_e2e {

/// Linear-interpolated quantile of an ascending-sorted sample (q in
/// [0, 1]); 0 for an empty sample.
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, 0.5);
}

inline double sum_of(const std::vector<double>& values) {
  double s = 0.0;
  for (const double v : values) s += v;
  return s;
}

inline double mean_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum_of(values) / values.size();
}

class LatencyRecorder {
 public:
  struct Tail {
    double percentile = 0.0;  ///< e.g. 99 for p99
    double value = 0.0;
    std::size_t beyond = 0;   ///< samples strictly above `value`
  };

  void add(double value) {
    samples_.push_back(value);
    sorted_ = false;
  }
  void merge(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  double sum() const { return sum_of(samples_); }

  double quantile(double q) {
    sort();
    return sorted_quantile(samples_, q);
  }
  double median() { return quantile(0.5); }

  std::size_t beyond(double value) {
    sort();
    return static_cast<std::size_t>(
        samples_.end() -
        std::upper_bound(samples_.begin(), samples_.end(), value));
  }

  /// The highest of p99.9 / p99 / p95 / p90 / p50 that has at least ten
  /// samples beyond it (p50 when the sample is tiny).
  Tail tail() {
    for (const double p : {99.9, 99.0, 95.0, 90.0}) {
      const double v = quantile(p / 100.0);
      const std::size_t n = beyond(v);
      if (n >= 10) return {p, v, n};
    }
    const double v = median();
    return {50.0, v, beyond(v)};
  }

 private:
  void sort() {
    if (!sorted_) std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }

  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace evord::bench_e2e
