#include "src/scheduler/placement_policy.h"

#include <algorithm>

namespace ursa {

double TieTerm(const TaskUsage& usage, const WorkerLoad& load) {
  double backlog = 0.0;
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    if (usage.bytes[r] > 0.0) {
      backlog += load.apt[r];
    }
  }
  return 1e-4 / (1.0 + backlog);
}

void BoundKeys(const WorkerLoad& load, double key[kNumResourceDims]) {
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    key[r] = load.d[r] / std::max(load.rate[r], 1.0);
  }
  const size_t mem = static_cast<size_t>(ResourceDim::kMemory);
  key[mem] = load.d[mem] / load.memory_capacity;
}

void BoundCoefs(const TaskUsage& usage, double ept, bool consider_network,
                double coef[kNumResourceDims]) {
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    const bool skipped =
        !consider_network && static_cast<ResourceType>(r) == ResourceType::kNetwork;
    coef[r] = skipped || usage.bytes[r] <= 0.0 ? 0.0 : usage.bytes[r] / ept;
  }
  coef[static_cast<size_t>(ResourceDim::kMemory)] = usage.memory;
}

bool Algorithm1Score(const TaskUsage& usage, const WorkerLoad& load, double ept,
                     const int headroom[kNumMonotaskResources], bool consider_network,
                     double* out_score) {
  if (usage.memory > load.free_memory) {
    return false;
  }
  double score = 0.0;
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    if (!consider_network && static_cast<ResourceType>(r) == ResourceType::kNetwork) {
      continue;
    }
    if (usage.bytes[r] <= 0.0) {
      continue;
    }
    double inc = usage.bytes[r] / std::max(load.rate[r], 1.0) / ept;
    // The D_r == 0 skip rule (section 4.2.2) only helps while some worker
    // still has headroom in r to steer toward; when the whole cluster is
    // backlogged on r, refusing every worker would merely idle the other
    // resources, so the rule is suspended for that dimension.
    if (load.d[r] <= 0.0 && headroom[r] > 0) {
      return false;  // Assigning t here would block on resource r.
    }
    inc = std::min(inc, load.d[r]);
    score += load.d[r] * inc;
  }
  // Memory dimension, normalized by capacity so all dims are O(1).
  const double d_mem = load.d[static_cast<size_t>(ResourceDim::kMemory)];
  if (d_mem <= 0.0) {
    return false;
  }
  const double inc_mem = std::min(usage.memory / load.memory_capacity, d_mem);
  score += d_mem * inc_mem;
  // Saturation tie-breaker: among equally (un)attractive workers, prefer
  // the one whose queues for the task's resources are shortest.
  score += TieTerm(usage, load);
  *out_score = score;
  return true;
}

}  // namespace ursa
