// Straggler mitigation by speculative task execution (DESIGN.md section 9).
//
// Detection lives in the job managers (per-stage RobustSample of completed
// task durations; a placed task whose elapsed time exceeds
// max(min_runtime, slowdown_threshold * median + mad_multiplier * MAD) is a
// straggler candidate). Mitigation lives in the scheduler (a speculative
// copy of the task is placed on a different worker via the same Algorithm-1
// score used for primary placement). This header holds the pieces shared by
// both sides: the configuration knobs, the candidate record the job manager
// hands to the scheduler, and the SpeculationManager that enforces the
// global wasted-work budget and funnels all speculation accounting into
// FaultCounters.
#ifndef SRC_SPEC_SPECULATION_H_
#define SRC_SPEC_SPECULATION_H_

#include "src/dag/types.h"
#include "src/fault/fault_stats.h"
#include "src/spec/robust_stats.h"

namespace ursa {

struct SpeculationConfig {
  bool enabled = false;
  // A placed task is a straggler candidate once its elapsed time exceeds
  // slowdown_threshold * stage_median + mad_multiplier * stage_MAD.
  double slowdown_threshold = 1.75;
  double mad_multiplier = 3.0;
  // Never speculate on a task younger than this (seconds); short tasks
  // finish before the copy could help.
  double min_runtime = 1.0;
  // Require this many completed tasks in the stage before trusting the
  // stage statistics.
  int min_stage_samples = 3;
  // At most floor(budget_fraction * running placed tasks) speculative copies
  // may be live at once (but at least one whenever the fraction is positive
  // and anything is running). This caps the duplicate work the cluster can
  // carry regardless of how many tasks look slow.
  double budget_fraction = 0.1;
};

// One straggler the job manager wants a copy of, ranked by the LATE-style
// estimated time to finish (larger = more worth duplicating).
struct StragglerCandidate {
  JobId job = kInvalidId;
  TaskId task = kInvalidId;
  StageId stage = kInvalidId;
  WorkerId worker = kInvalidId;  // Where the primary copy runs; avoid it.
  double elapsed = 0.0;
  double estimated_time_to_finish = 0.0;
  // Resource demand for Algorithm-1 scoring of the copy's placement
  // (bytes per monotask resource + the primary's memory allocation).
  double bytes[kNumMonotaskResources] = {};
  double memory = 0.0;
};

// Tracks live speculative copies against the global budget and records all
// speculation outcomes and wasted work into FaultCounters. One instance per
// scheduler, shared by every job manager.
class SpeculationManager {
 public:
  SpeculationManager(const SpeculationConfig& config, FaultCounters* stats)
      : config_(config), stats_(stats) {}

  SpeculationManager(const SpeculationManager&) = delete;
  SpeculationManager& operator=(const SpeculationManager&) = delete;

  const SpeculationConfig& config() const { return config_; }
  int active() const { return active_; }

  // True when the budget admits one more live copy given `running_tasks`
  // currently placed primaries.
  bool CanLaunch(int running_tasks) const {
    if (!config_.enabled || config_.budget_fraction <= 0.0 || running_tasks <= 0) {
      return false;
    }
    const int cap = static_cast<int>(config_.budget_fraction * running_tasks);
    return active_ < (cap > 0 ? cap : 1);
  }

  // Counts a launched copy and returns its run-wide launch number (from 1),
  // which serves as the copy's message channel.
  int OnLaunched() {
    ++active_;
    ++stats_->speculations_launched;
    return ++launched_;
  }
  void OnWon() {
    --active_;
    ++stats_->speculations_won;
  }
  void OnLost() {
    --active_;
    ++stats_->speculations_lost;
  }
  void OnCancelled() {
    --active_;
    ++stats_->speculations_cancelled;
  }

  // Duplicate work discarded by a cancellation: `bytes` processed by the
  // losing side and the `seconds` it occupied the resource.
  void RecordWaste(ResourceType r, double bytes, double seconds) {
    stats_->RecordWastedWork(r, bytes, seconds);
  }

 private:
  SpeculationConfig config_;
  FaultCounters* stats_;
  int active_ = 0;  // Live speculative copies across all jobs.
  int launched_ = 0;  // Copies launched so far across all jobs.
};

// Detection predicate: is a task that has been running for `elapsed` seconds
// a straggler given its stage's completed-duration statistics? False until
// the stage has config.min_stage_samples completions.
bool IsStraggler(const SpeculationConfig& config, const RobustSample& stage_durations,
                 double elapsed);

// LATE-style estimated time to finish from elapsed runtime and progress in
// [0, 1] (fraction of the task's input bytes already processed). Tasks with
// no measurable progress rank above everything with the same elapsed time.
double EstimatedTimeToFinish(double elapsed, double progress);

}  // namespace ursa

#endif  // SRC_SPEC_SPECULATION_H_
