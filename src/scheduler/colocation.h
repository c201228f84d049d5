// Hugo-style interference-aware co-location (DESIGN.md section 13).
//
// Hugo (PAPERS.md) groups jobs by how well they share machines and learns
// the grouping online from observed interference. This module is the
// monotask-granularity analogue: the scheduler reports, every tick, which
// stages are resident on each worker together with the worker's observed
// contention (its StepTracker-backed APT backlog normalized by EPT), and
// the learner maintains an exponential moving average of that contention
// per unordered stage pair. Stage identity is the (job class, stage name)
// string pair interned to a dense integer key, so the signal transfers
// across recurring jobs of the same class — the paper's recurring-workload
// assumption.
//
// Complementarity(a, b) maps the learned contention EMA into [-1, 1]
// (+1 = the pair co-ran only on idle workers, -1 = only on saturated ones).
// HugoScorePolicy decorates a base placement score with
// weight * mean positive complementarity between the placed stage and the
// worker's residents, steering tasks toward workers running stages they
// have co-run with at low contention. The bonus is attraction-only (never
// negative) so it cannot repel tasks from busy workers and undo Algorithm
// 1's packing. The decorated score depends on worker identity, so the
// policy is not bucketable and takes the linear scan.
//
// Determinism: all state lives in ordered std::map keyed by interned
// integers; updates arrive in the scheduler's deterministic tick order, so
// same-seed runs learn bit-identical scores (the policy determinism tests
// pin this down).
#ifndef SRC_SCHEDULER_COLOCATION_H_
#define SRC_SCHEDULER_COLOCATION_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/scheduler/placement_policy.h"

namespace ursa {

struct ColocationConfig {
  bool enabled = false;
  // Scale of the complementarity bonus added to the base placement score.
  // The bonus lands in [0, weight] (attraction-only, see PlacementBonus);
  // the default matches Algorithm 1's own 1e-4 tie-break term, so
  // co-location decides between workers Algorithm 1 scores (near-)equal
  // instead of overriding its demand matching — larger weights herd tasks
  // onto learned-complementary workers and measurably hurt JCT
  // (bench_policy_compare sweeps this).
  double weight = 1e-4;
  // EMA step for contention samples; higher adapts faster, lower smooths.
  double ema_alpha = 0.2;
  // Long-pole/packing threshold reused when colocation composes with other
  // policies is configured there; this struct stays purely about learning.
};

class ColocationLearner {
 public:
  explicit ColocationLearner(const ColocationConfig& config) : config_(config) {}

  // Interns the (job class, stage name) identity to a dense key. Classes
  // and stage names recur across jobs of the same workload, which is what
  // lets the online signal accumulate.
  int InternKey(const std::string& klass, const std::string& stage_name);
  // Key for an already-interned identity, -1 if never seen (const lookups
  // for tests).
  int FindKey(const std::string& klass, const std::string& stage_name) const;

  // One scheduler tick's observation: residents[w] holds the interned stage
  // keys resident on worker w (sorted ascending by the caller) and
  // contention[w] the worker's normalized backlog in [0, 1]. Every unordered
  // pair of distinct co-resident keys absorbs the worker's contention sample
  // into its EMA; workers with fewer than two residents carry no pair signal.
  void ObserveTick(const std::vector<std::vector<int>>& residents,
                   const std::vector<double>& contention);

  // Learned complementarity of a stage pair in [-1, 1]; 0 when the pair has
  // never co-resided. Symmetric by construction (pairs are keyed ordered).
  double Complementarity(int a, int b) const;

  // Mean *positive* complementarity between `key` and the resident keys of
  // one worker, in [0, 1]; 0 when the worker is empty. This is the bonus
  // HugoScorePolicy applies (attraction-only, see the .cc rationale).
  double PlacementBonus(int key, const std::vector<int>& residents_on_worker) const;

  size_t num_keys() const { return key_index_.size(); }
  size_t num_pairs() const { return pair_contention_.size(); }
  int64_t observations() const { return observations_; }
  const std::map<std::pair<int, int>, double>& pair_contention() const {
    return pair_contention_;
  }

 private:
  ColocationConfig config_;
  std::map<std::pair<std::string, std::string>, int> key_index_;
  // EMA of worker contention observed while the (ordered) pair co-resided.
  std::map<std::pair<int, int>, double> pair_contention_;
  int64_t observations_ = 0;
};

// Decorates a base placement score with the learned co-location bonus.
class HugoScorePolicy : public PlacementScorePolicy {
 public:
  HugoScorePolicy(std::unique_ptr<PlacementScorePolicy> base,
                  const ColocationLearner* learner, double weight)
      : base_(std::move(base)), learner_(learner), weight_(weight) {}

  const char* name() const override { return "hugo"; }
  // The bonus depends on which worker is scored, so one bucket-wide score
  // is invalid: force the linear scan.
  bool bucketable() const override { return false; }
  bool Score(const TaskUsage& usage, const WorkerLoad& load, WorkerId worker, double ept,
             const int headroom[kNumMonotaskResources], bool consider_network,
             const ScoreContext& ctx, double* out_score) const override;

  const PlacementScorePolicy* base() const { return base_.get(); }

 private:
  std::unique_ptr<PlacementScorePolicy> base_;
  const ColocationLearner* learner_;
  double weight_;
};

}  // namespace ursa

#endif  // SRC_SCHEDULER_COLOCATION_H_
