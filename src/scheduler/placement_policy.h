// Ursa's worker score for monotask placement (Algorithm 1, section 4.2.2;
// DESIGN.md section 13) and the separable bound that drives the bucketed
// scan (DESIGN.md section 12).
//
// Algorithm1Score is the paper's D_r(w) * Inc_r(t, w) dot product with the
// memory dimension and the saturation tie-breaker. Its contract, enforced by
// the policy property and determinism tests:
//   - It is a pure function of its arguments (no clocks, no randomness, no
//     mutable state), so same-seed runs stay bit-identical, and one call is
//     valid for every worker sharing a bit-identical load.
//   - Every accepted score stays within the separable bound
//     BoundScore(BoundCoefs(task), BoundKeys(load), TieTerm(task, load)): a
//     per-dimension sum of task coefficient times worker key, plus the
//     saturation tie term. Both only fall as placements worsen a load within
//     a tick, or the bucketed scan's threshold cutoff would skip the true
//     argmax.
//   - A false return implies the worker is infeasible for the task (memory,
//     or a needed dimension exhausted while headroom exists elsewhere); the
//     scan's headroom masks assume it.
#ifndef SRC_SCHEDULER_PLACEMENT_POLICY_H_
#define SRC_SCHEDULER_PLACEMENT_POLICY_H_

#include "src/dag/types.h"
#include "src/exec/estimator.h"

namespace ursa {

// Per-worker load snapshot scored by Algorithm1Score (built by the scheduler
// from EPT and the worker's StepTracker-backed APT_r; DESIGN.md section 12).
struct WorkerLoad {
  double d[kNumResourceDims] = {0.0, 0.0, 0.0, 0.0};
  // Raw APT_r values; used to break ties when every D_r is exhausted
  // (placements then go to the least-loaded worker instead of piling up).
  double apt[kNumMonotaskResources] = {0.0, 0.0, 0.0};
  double free_memory = 0.0;
  double memory_capacity = 0.0;
  double rate[kNumMonotaskResources] = {0.0, 0.0, 0.0};
};

// Scores placing a task with `usage` on a worker carrying `load`.
// `headroom[r]` counts workers in the current view with d_r > 0 (the
// cluster-wide liveness suspension of the D_r == 0 skip rule). Returns
// false when the worker must not receive the task.
bool Algorithm1Score(const TaskUsage& usage, const WorkerLoad& load, double ept,
                     const int headroom[kNumMonotaskResources], bool consider_network,
                     double* out_score);

// The saturation tie-breaker Algorithm1Score adds to its score:
// 1e-4 / (1 + the worker's APT backlog over the resources the task uses),
// at most 1e-4.
double TieTerm(const TaskUsage& usage, const WorkerLoad& load);

// The separable score bound:
//
//   score(t, w) <= (sum_r coef_r(t) * key_r(w) + tie) * (1 + 1e-9)
//
// over the four dimensions, with worker keys key_r = d_r / max(rate_r, 1)
// and key_mem = d_mem / memory_capacity, task coefficients
// coef_r = bytes_r / ept (zero for the network when it is not considered)
// and coef_mem = memory, and tie either TieTerm(t, w) or its maximum 1e-4.
// Each resource term of the score is d_r * min(inc_r, d_r) <=
// d_r * inc_r = coef_r * key_r, the memory term likewise; the relative
// slack absorbs the rounding of both sides. Every key and the tie term only
// fall as placements worsen a load within a tick. The key part is a sum of
// per-dimension products, so the bucketed scan can walk per-dimension key
// orders and stop once no unvisited worker can reach the best score
// (Fagin-Lotem-Naor threshold algorithm; DESIGN.md section 12).
void BoundKeys(const WorkerLoad& load, double key[kNumResourceDims]);
void BoundCoefs(const TaskUsage& usage, double ept, bool consider_network,
                double coef[kNumResourceDims]);
inline double BoundScore(const double coef[kNumResourceDims],
                         const double key[kNumResourceDims], double tie) {
  double sum = tie;
  for (int r = 0; r < kNumResourceDims; ++r) {
    sum += coef[r] * key[r];
  }
  return sum * (1.0 + 1e-9);
}

}  // namespace ursa

#endif  // SRC_SCHEDULER_PLACEMENT_POLICY_H_
