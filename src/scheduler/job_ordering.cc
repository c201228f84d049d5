#include "src/scheduler/job_ordering.h"

#include <algorithm>

namespace ursa {

double SrjfRank(const std::array<double, kNumMonotaskResources>& remaining,
                const std::array<double, kNumMonotaskResources>& cluster_load) {
  double rank = 0.0;
  for (size_t r = 0; r < remaining.size(); ++r) {
    if (cluster_load[r] <= 0.0) {
      continue;
    }
    const double rho = std::clamp(remaining[r] / cluster_load[r], 0.0, 1.0);
    rank += (2.0 - rho) * rho;
  }
  return rank;
}

double PlacementPriorityBonus(OrderingPolicy policy, double weight, double elapsed,
                              double srjf_rank) {
  if (policy == OrderingPolicy::kEjf) {
    return weight * elapsed;
  }
  return weight / (srjf_rank + 1e-3);
}

double GrapheneStageBonus(bool troublesome, double bottom_share) {
  if (!troublesome) {
    return 0.0;
  }
  return kGrapheneStageWeight * (1.0 + std::clamp(bottom_share, 0.0, 1.0));
}

const std::vector<OrderingPolicyInfo>& OrderingPolicyRegistry() {
  static const std::vector<OrderingPolicyInfo> kRegistry = {
      {OrderingPolicy::kEjf, "EJF", "ejf", "Earliest Job First (section 4.2.2)"},
      {OrderingPolicy::kSrjf, "SRJF", "srjf",
       "Smallest Remaining Job First (section 4.2.2)"},
      {OrderingPolicy::kGraphene, "GRAPHENE", "graphene",
       "Troublesome-subset-first DAG ordering (DESIGN.md section 13)"},
  };
  return kRegistry;
}

bool ParseOrderingPolicy(const std::string& flag, OrderingPolicy* out) {
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    if (flag == info.flag || flag == info.name) {
      *out = info.policy;
      return true;
    }
  }
  return false;
}

}  // namespace ursa
