#include "src/common/time_series.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace ursa {

void StepTracker::KeepHistory() {
  CHECK(current_ == 0.0 && last_change_ == 0.0) << "KeepHistory after the first change";
  history_ = std::make_unique<History>();
}

const StepTracker::History& StepTracker::history() const {
  CHECK(history_ != nullptr) << "windowed query on a tracker without history";
  return *history_;
}

void StepTracker::Set(double now, double value) {
  CHECK_GE(now, last_change_);
  // The running sum elides change points exactly as the history does: a Set
  // at the last change's instant overwrites it, and an equal value is no
  // change. So each v * dt term it adds is a term of Integral(0, t)'s loop.
  if (now == last_change_) {
    current_ = value;
  } else if (value != current_) {
    sum_ += current_ * (now - last_change_);
    last_change_ = now;
    current_ = value;
  }
  if (history_ == nullptr) {
    return;
  }
  std::vector<double>& times = history_->times;
  std::vector<double>& values = history_->values;
  if (!times.empty() && times.back() == now) {
    values.back() = value;
  } else if (values.empty() || values.back() != value) {
    times.push_back(now);
    values.push_back(value);
  }
}

void StepTracker::Add(double now, double delta) { Set(now, current_ + delta); }

double StepTracker::IntegralTo(double to) const {
  CHECK_GE(to, last_change_) << "integral read before the tracker's last change";
  return sum_ + current_ * (to - last_change_);
}

double StepTracker::Integral(double from, double to) const {
  const auto& [times, values] = history();
  if (times.empty() || to <= from) {
    return 0.0;
  }
  double total = 0.0;
  // Find the first change point at or after `from`; the value in force at
  // `from` is the one from the previous change point (or 0 if none).
  auto it = std::upper_bound(times.begin(), times.end(), from);
  size_t i = static_cast<size_t>(it - times.begin());
  double t = from;
  double v = (i == 0) ? 0.0 : values[i - 1];
  while (t < to) {
    const double next = (i < times.size()) ? std::min(times[i], to) : to;
    total += v * (next - t);
    t = next;
    if (i < times.size() && times[i] <= to) {
      v = values[i];
      ++i;
    }
  }
  return total;
}

double StepTracker::Average(double from, double to) const {
  if (to <= from) {
    return 0.0;
  }
  return Integral(from, to) / (to - from);
}

double StepTracker::Max(double from, double to) const {
  const auto& [times, values] = history();
  if (times.empty() || to <= from) {
    return 0.0;
  }
  auto it = std::upper_bound(times.begin(), times.end(), from);
  size_t i = static_cast<size_t>(it - times.begin());
  double best = (i == 0) ? 0.0 : values[i - 1];
  for (; i < times.size() && times[i] <= to; ++i) {
    best = std::max(best, values[i]);
  }
  return best;
}

std::vector<double> StepTracker::Resample(double from, double to, double step) const {
  CHECK_GT(step, 0.0);
  std::vector<double> out;
  if (to <= from) {
    return out;
  }
  const size_t n = static_cast<size_t>(std::ceil((to - from) / step));
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double lo = from + static_cast<double>(i) * step;
    const double hi = std::min(lo + step, to);
    out.push_back(Average(lo, hi));
  }
  return out;
}

}  // namespace ursa
