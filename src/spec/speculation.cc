#include "src/spec/speculation.h"

#include <algorithm>

namespace ursa {

bool IsStraggler(const SpeculationConfig& config, const RobustSample& stage_durations,
                 double elapsed) {
  if (static_cast<int>(stage_durations.size()) < kMinStageSamples) {
    return false;
  }
  const double median = stage_durations.Median();
  if (median <= 0.0) {
    return false;
  }
  const double limit =
      std::max(kSpecMinRuntime,
               config.slowdown_threshold * median + kMadMultiplier * stage_durations.Mad());
  return elapsed > limit;
}

double EstimatedTimeToFinish(double elapsed, double progress) {
  progress = std::clamp(progress, 0.0, 1.0);
  if (progress <= 0.0) {
    // No progress signal yet: rank by elapsed time alone, above any task
    // that has made progress for the same elapsed time.
    return elapsed * 1e6;
  }
  return elapsed * (1.0 - progress) / progress;
}

}  // namespace ursa
