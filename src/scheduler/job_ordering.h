// Job ordering policies (section 4.2.2, "Job ordering"; DESIGN.md
// section 13).
//
// Ursa supports Earliest Job First (EJF) and Smallest Remaining Job First
// (SRJF). Both are enforced in three places: job admission order, a weighted
// term added to the placement score of each stage, and the ordering of
// monotasks in worker queues. Graphene-style troublesome-first ordering
// (DAGPS, PAPERS.md) layers a DAG-aware stage term on top of SRJF: each
// job's long-pole stage subset (src/dag/critical_path.h) gets a
// placement-score boost so the hard stuff schedules first, while admission
// and queue order follow SRJF. This header provides the rank computations
// and the policy registry; the scheduler wires them into the enforcement
// mechanisms.
#ifndef SRC_SCHEDULER_JOB_ORDERING_H_
#define SRC_SCHEDULER_JOB_ORDERING_H_

#include <array>
#include <string>
#include <vector>

#include "src/dag/types.h"

namespace ursa {

enum class OrderingPolicy : int {
  kEjf = 0,
  kSrjf = 1,
  kGraphene = 2,  // Troublesome-subset-first on top of SRJF.
};

inline const char* OrderingPolicyName(OrderingPolicy p) {
  switch (p) {
    case OrderingPolicy::kEjf:
      return "EJF";
    case OrderingPolicy::kSrjf:
      return "SRJF";
    case OrderingPolicy::kGraphene:
      return "GRAPHENE";
  }
  return "?";
}

// Graphene ordering constants (used when the policy is kGraphene).
//
// Long-pole membership bar: a stage is troublesome when its heaviest
// through-path reaches this fraction of the job's critical path. 0.9 keeps
// the subset tight (true long poles only); lower bars drag in near-critical
// stages. No sweep backs the value: it is the one every Graphene result in
// EXPERIMENTS.md was measured with.
constexpr double kGrapheneThreshold = 0.9;
// Weight of the troublesome-stage placement bonus. Sized against the
// scheduler's job-priority weight so it reorders stages *within* a job
// (where the job term is constant) and between closely ranked jobs,
// without overriding large gaps between SRJF job ranks.
constexpr double kGrapheneStageWeight = 150.0;

// The job-level policy actually enforced at admission / queue granularity:
// the policy itself, or SRJF (Graphene's base) for kGraphene.
inline OrderingPolicy EffectiveJobPolicy(OrderingPolicy policy) {
  return policy == OrderingPolicy::kGraphene ? OrderingPolicy::kSrjf : policy;
}

// SRJF rank of a job: the dot product of (2L - R) and R with both sides
// normalized by the cluster load L, i.e. sum_r (2 - R[r]/L[r]) * (R[r]/L[r]).
// R is the job's remaining per-resource work, L the total remaining work of
// all admitted jobs. Smaller rank = less remaining work relative to the
// contended resources = scheduled first. When a resource r is heavily
// demanded (large L[r] share), it receives more weight, matching the paper's
// intuition. Resources with L[r] == 0 contribute nothing.
double SrjfRank(const std::array<double, kNumMonotaskResources>& remaining,
                const std::array<double, kNumMonotaskResources>& cluster_load);

// Priority *bonus* added to a stage's placement score for this job.
// EJF: W * elapsed-since-submission. SRJF: W / (rank + epsilon).
// kGraphene resolves to SRJF's job term here; the troublesome stage term is
// added separately by the scheduler.
double PlacementPriorityBonus(OrderingPolicy policy, double weight, double elapsed,
                              double srjf_rank);

// Graphene's DAG-aware stage term: kGrapheneStageWeight * (1 + bottom_share)
// for a troublesome stage (bottom_share in [0, 1]: how much of the critical
// path still hangs below it, so deeper long-pole stages outrank shallower
// ones), 0 for the rest.
double GrapheneStageBonus(bool troublesome, double bottom_share);

struct OrderingPolicyInfo {
  OrderingPolicy policy;
  const char* name;  // Table/report spelling (EJF, SRJF, GRAPHENE).
  const char* flag;  // CLI spelling (ursa-<flag>).
  const char* description;
};

// All registered ordering policies in enum order. Drives CLI parsing,
// bench_table6_ordering's columns and bench_policy_compare's sweep, so a
// new policy lands in every surface by registering here.
const std::vector<OrderingPolicyInfo>& OrderingPolicyRegistry();
bool ParseOrderingPolicy(const std::string& flag, OrderingPolicy* out);

}  // namespace ursa

#endif  // SRC_SCHEDULER_JOB_ORDERING_H_
