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

bool Algorithm1ScorePolicy::Score(const TaskUsage& usage, const WorkerLoad& load,
                                  [[maybe_unused]] WorkerId worker, double ept,
                                  const int headroom[kNumMonotaskResources],
                                  bool consider_network,
                                  [[maybe_unused]] const ScoreContext& ctx,
                                  double* out_score) const {
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

bool TetrisDotScorePolicy::Score(const TaskUsage& usage, const WorkerLoad& load,
                                 [[maybe_unused]] WorkerId worker, double ept,
                                 const int headroom[kNumMonotaskResources],
                                 bool consider_network,
                                 [[maybe_unused]] const ScoreContext& ctx,
                                 double* out_score) const {
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
    // Same liveness suspension as Algorithm 1: veto a drained dimension only
    // while some worker still has headroom in it.
    if (load.d[r] <= 0.0 && headroom[r] > 0) {
      return false;
    }
    // Tetris alignment: demand is the EPT-normalized service share, not
    // clamped to the worker's remaining headroom — a big task keeps pulling
    // toward big-headroom workers instead of flattening out at d_r.
    const double demand = std::min(1.0, usage.bytes[r] / std::max(load.rate[r], 1.0) / ept);
    score += load.d[r] * demand;
  }
  const double d_mem = load.d[static_cast<size_t>(ResourceDim::kMemory)];
  if (d_mem <= 0.0) {
    return false;
  }
  score += d_mem * std::min(1.0, usage.memory / load.memory_capacity);
  score += TieTerm(usage, load);
  *out_score = score;
  return true;
}

const std::vector<ScorePolicyInfo>& ScorePolicyRegistry() {
  static const std::vector<ScorePolicyInfo> kRegistry = {
      {PlacementScoreKind::kAlgorithm1, "alg1",
       "Ursa Algorithm-1 load matching (section 4.2.2)"},
      {PlacementScoreKind::kTetrisDot, "tetris",
       "Tetris-style headroom/demand dot-product packing"},
  };
  return kRegistry;
}

bool ParsePlacementScoreKind(const std::string& flag, PlacementScoreKind* out) {
  for (const ScorePolicyInfo& info : ScorePolicyRegistry()) {
    if (flag == info.flag) {
      *out = info.kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<PlacementScorePolicy> MakeScorePolicy(PlacementScoreKind kind) {
  switch (kind) {
    case PlacementScoreKind::kAlgorithm1:
      return std::make_unique<Algorithm1ScorePolicy>();
    case PlacementScoreKind::kTetrisDot:
      return std::make_unique<TetrisDotScorePolicy>();
  }
  return std::make_unique<Algorithm1ScorePolicy>();
}

}  // namespace ursa
