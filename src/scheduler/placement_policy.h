// Pluggable worker-scoring policies for monotask placement (DESIGN.md
// section 13).
//
// UrsaScheduler's BestWorker loop is policy-agnostic: given a task's usage
// estimate and a worker's load snapshot it asks the active
// PlacementScorePolicy for a score (or a veto). Bucketable policies are
// additionally bounded by the separable score bound below, which drives the
// threshold-ordered bucketed scan. Policies shipped here:
//
//   Algorithm1   Ursa's load-matching score (section 4.2.2): the paper's
//                D_r(w) * Inc_r(t, w) dot product with the memory dimension
//                and the saturation tie-breaker. Bit-identical to the
//                pre-framework hardcoded scorer.
//   TetrisDot    Tetris-style alignment packing [17] as a *score* inside
//                Ursa's fine-grained placement: the dot product of the
//                worker's remaining headroom D_r and the task's normalized
//                demand, without Algorithm 1's Inc clamp. Unlike the
//                src/baselines PackingState contenders it reserves nothing
//                at peak — monotask-level release still applies — so it
//                isolates the scoring rule from the reservation model.
//
// The Hugo-style co-location policy lives in src/scheduler/colocation.h; it
// decorates a base policy with a learned stage-pair complementarity bonus
// and is not bucketable (its score depends on worker identity).
//
// Contract (enforced by the policy property/determinism tests):
//   - Score() must be a pure function of its arguments — no clocks, no
//     randomness, no mutable state — so same-seed runs stay bit-identical.
//   - A bucketable policy's scores must stay within the separable bound
//     BoundScore(BoundCoefs(task), BoundKeys(load), TieTerm(task, load)): a
//     per-dimension sum of task coefficient times worker key, plus the
//     saturation tie term. Both only fall as placements worsen a load within
//     a tick, or the bucketed scan's threshold cutoff would skip the true
//     argmax. Non-bucketable policies fall back to the linear scan.
//   - A false return must imply the worker is infeasible for the task
//     (memory, or a needed dimension exhausted while headroom exists
//     elsewhere); the scan's headroom masks assume it.
#ifndef SRC_SCHEDULER_PLACEMENT_POLICY_H_
#define SRC_SCHEDULER_PLACEMENT_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dag/types.h"
#include "src/exec/estimator.h"

namespace ursa {

class ColocationLearner;

// Per-worker load snapshot scored by the policies (built by the scheduler
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

enum class PlacementScoreKind : int {
  kAlgorithm1 = 0,  // Ursa's Algorithm-1 load-matching score (default).
  kTetrisDot = 1,   // Tetris-style headroom/demand dot product.
};

// Side information for one Score() call that is not part of the load: the
// placed stage's interned co-location key and the per-worker resident-key
// snapshot (null unless co-location learning is on).
struct ScoreContext {
  int stage_key = -1;  // ColocationLearner key of the stage being placed.
  const std::vector<std::vector<int>>* residents = nullptr;  // Per worker.
};

class PlacementScorePolicy {
 public:
  virtual ~PlacementScorePolicy() = default;
  virtual const char* name() const = 0;
  // Whether one Score() call is valid for every worker sharing a
  // bit-identical load (the bucketed-scan requirement). Policies whose score
  // depends on worker identity (co-location) must return false and take the
  // linear scan.
  virtual bool bucketable() const { return true; }
  // Scores placing a task with `usage` on `worker` carrying `load`.
  // `headroom[r]` counts workers in the current view with d_r > 0 (the
  // cluster-wide liveness suspension of the D_r == 0 skip rule). Returns
  // false when the worker must not receive the task.
  virtual bool Score(const TaskUsage& usage, const WorkerLoad& load, WorkerId worker,
                     double ept, const int headroom[kNumMonotaskResources],
                     bool consider_network, const ScoreContext& ctx,
                     double* out_score) const = 0;
};

// Ursa's Algorithm-1 score (section 4.2.2). Bit-identical to the scorer
// previously hardcoded in UrsaScheduler::ScoreWorker/LoadUb.
class Algorithm1ScorePolicy : public PlacementScorePolicy {
 public:
  const char* name() const override { return "alg1"; }
  bool Score(const TaskUsage& usage, const WorkerLoad& load, WorkerId worker, double ept,
             const int headroom[kNumMonotaskResources], bool consider_network,
             const ScoreContext& ctx, double* out_score) const override;
};

// Tetris-style dot-product packing score: sum_r D_r(w) * demand_r(t) over
// the monotask resources plus the memory dimension, demand normalized to
// [0, 1] per dimension. Keeps Algorithm 1's feasibility rules (memory hard
// check, D_r == 0 veto while headroom exists elsewhere) and tie-breaker so
// it composes with the bucketed scan and never strands a saturated cluster.
class TetrisDotScorePolicy : public PlacementScorePolicy {
 public:
  const char* name() const override { return "tetris"; }
  bool Score(const TaskUsage& usage, const WorkerLoad& load, WorkerId worker, double ept,
             const int headroom[kNumMonotaskResources], bool consider_network,
             const ScoreContext& ctx, double* out_score) const override;
};

// The saturation tie-breaker both shipped policies add to their score:
// 1e-4 / (1 + the worker's APT backlog over the resources the task uses),
// at most 1e-4.
double TieTerm(const TaskUsage& usage, const WorkerLoad& load);

// The separable score bound shared by every bucketable policy:
//
//   score(t, w) <= (sum_r coef_r(t) * key_r(w) + tie) * (1 + 1e-9)
//
// over the four dimensions, with worker keys key_r = d_r / max(rate_r, 1)
// and key_mem = d_mem / memory_capacity, task coefficients
// coef_r = bytes_r / ept (zero for the network when it is not considered)
// and coef_mem = memory, and tie either TieTerm(t, w) or its maximum 1e-4.
// Each resource term of both policies is d_r * min(inc_r, cap) <=
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

inline const char* PlacementScoreKindName(PlacementScoreKind kind) {
  return kind == PlacementScoreKind::kAlgorithm1 ? "alg1" : "tetris";
}

struct ScorePolicyInfo {
  PlacementScoreKind kind;
  const char* flag;  // CLI spelling (--score=<flag>).
  const char* description;
};

// All registered worker-score policies, in enum order; drives CLI parsing
// and the bench sweeps so new policies appear everywhere automatically.
const std::vector<ScorePolicyInfo>& ScorePolicyRegistry();
bool ParsePlacementScoreKind(const std::string& flag, PlacementScoreKind* out);

std::unique_ptr<PlacementScorePolicy> MakeScorePolicy(PlacementScoreKind kind);

}  // namespace ursa

#endif  // SRC_SCHEDULER_PLACEMENT_POLICY_H_
