// Robust running statistics for straggler detection (DESIGN.md section 9).
//
// A RobustSample keeps a sorted multiset of observed durations and answers
// median and MAD (median absolute deviation) queries. Median + MAD are the
// LATE-style robust alternative to mean + stddev: a handful of genuinely
// slow tasks shifts neither, so the detection threshold tracks the healthy
// population instead of chasing the outliers it is trying to flag.
#ifndef SRC_SPEC_ROBUST_STATS_H_
#define SRC_SPEC_ROBUST_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ursa {

class RobustSample {
 public:
  void Add(double value) {
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), value);
    sorted_.insert(it, value);
    mad_valid_ = false;
  }

  size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  double Median() const { return MedianOf(sorted_); }

  // Median of |x - median(x)|. Zero until there are at least two samples.
  // Computed on the first query after an Add and cached until the next one,
  // so a stage queried every tick sorts once per completed task.
  double Mad() const {
    if (!mad_valid_) {
      mad_ = ComputeMad();
      mad_valid_ = true;
    }
    return mad_;
  }

 private:
  static double MedianOf(const std::vector<double>& sorted) {
    if (sorted.empty()) {
      return 0.0;
    }
    const size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }

  double ComputeMad() const {
    if (sorted_.size() < 2) {
      return 0.0;
    }
    const double median = Median();
    std::vector<double> deviations;
    deviations.reserve(sorted_.size());
    for (double v : sorted_) {
      deviations.push_back(v >= median ? v - median : median - v);
    }
    std::sort(deviations.begin(), deviations.end());
    return MedianOf(deviations);
  }

  std::vector<double> sorted_;
  mutable double mad_ = 0.0;
  mutable bool mad_valid_ = false;
};

}  // namespace ursa

#endif  // SRC_SPEC_ROBUST_STATS_H_
