// Piecewise-constant time-series tracking.
//
// StepTracker records a quantity that changes at discrete instants (busy CPU
// cores, bytes/s of network receive, allocated memory...). It keeps a
// running integral: the last change time and value plus the exact integral
// up to that change, so IntegralTo(t) over [0, t] costs O(1) and no memory
// grows with the run. The metrics layer builds SE/UE from these integrals.
//
// Windowed queries (Integral(from, to), Average, Max, Resample) need the
// full change history, which a tracker records only after KeepHistory().
// Utilization series (`ExperimentConfig::sample_step > 0`) and tests that
// read arbitrary windows turn it on; nothing else pays for it.
#ifndef SRC_COMMON_TIME_SERIES_H_
#define SRC_COMMON_TIME_SERIES_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace ursa {

class StepTracker {
 public:
  StepTracker() = default;

  // Records every change point from now on, for the windowed queries below.
  // Must be called before the first Set.
  void KeepHistory();

  // Records that the tracked quantity has `value` from time `now` onward.
  // Times must be non-decreasing across calls. A Set at the instant of the
  // last change overwrites it; a Set that keeps the value is no change.
  void Set(double now, double value);

  // Adds `delta` to the current value at time `now`.
  void Add(double now, double delta);

  double current() const { return current_; }

  // Exact integral over [0, to]. `to` must not precede the last change.
  // Adds the same value * duration terms, in the same order, as
  // Integral(0, to) on the history, so the two agree bit for bit.
  double IntegralTo(double to) const;

  // --- Windowed queries; these CHECK that the history is kept. ---

  // Exact integral of the quantity over [from, to]. The value before the
  // first Set is 0; the value after the last change extends indefinitely.
  double Integral(double from, double to) const;

  // Average value over [from, to]; 0 when the window is empty.
  double Average(double from, double to) const;

  // Maximum value attained in [from, to].
  double Max(double from, double to) const;

  // Resamples onto a grid of `step`-spaced points covering [from, to]; each
  // output point is the average over its step window (so short spikes still
  // show up proportionally).
  std::vector<double> Resample(double from, double to, double step) const;

  // Change points held in the history; 0 when the history is off.
  size_t num_changes() const { return history_ != nullptr ? history_->times.size() : 0; }

 private:
  // Change points: the value becomes values[i] at times[i].
  struct History {
    std::vector<double> times;
    std::vector<double> values;
  };

  // The history; CHECKs that it is kept.
  const History& history() const;

  double current_ = 0.0;
  double last_change_ = 0.0;  // Time of the last change point.
  double sum_ = 0.0;          // Integral over [0, last_change_].
  // Null unless KeepHistory() was called: the common case costs one word.
  std::unique_ptr<History> history_;
};

}  // namespace ursa

#endif  // SRC_COMMON_TIME_SERIES_H_
