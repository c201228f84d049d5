// Property tests for the scheduling policies (DESIGN.md section 13):
// invariants that must hold for every input, checked over seeded sweeps
// rather than hand-picked examples.
//
//   - Troublesome-subset structure: nonempty, contains a full critical-path
//     witness, and convex-closed (any stage between two members is a
//     member) across generated DAG shapes and thresholds.
//   - Score contract: the separable score bound dominates every feasible
//     Algorithm1Score, and a task past the worker's free memory is always
//     vetoed (the bucketed scan's d_mem mask assumes both).
//   - The ordering-policy registry round-trips its flags and names.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dag/critical_path.h"
#include "src/dag/job.h"
#include "src/scheduler/job_ordering.h"
#include "src/scheduler/placement_policy.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

// Deterministic generator for the sweeps (no std::random in tests of the
// deterministic core; same splitmix64 step the simulator uses).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() {
    return static_cast<double>(Next() >> 11) / static_cast<double>(1ULL << 53);
  }
  int Range(int lo, int hi) {  // Inclusive bounds.
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

 private:
  uint64_t state_;
};

// --- Troublesome-subset structure. ---

// Random layered DAG: a chain of shuffle stages with per-stage random
// parallelism, byte sizes and CPU complexity — every plan the compiler
// accepts by construction.
ExecutionPlan RandomChainPlan(Lcg* rng) {
  OpGraph graph;
  const int depth = rng->Range(1, 5);
  const int parts0 = rng->Range(2, 6);
  DataId data = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts0),
                          rng->Uniform(1.0, 64.0) * 1024 * 1024),
      "in");
  DataId mapped = graph.CreateData(parts0, "m0");
  OpCostModel cost;
  cost.cpu_complexity = rng->Uniform(0.5, 4.0);
  OpHandle prev =
      graph.CreateOp(ResourceType::kCpu, "map0").Read(data).Create(mapped).SetCost(cost);
  DataId cur = mapped;
  for (int d = 1; d < depth; ++d) {
    const int parts = rng->Range(2, 6);
    const std::string level = std::to_string(d);
    const DataId shuffled = graph.CreateData(parts, "s" + level);
    const DataId out = graph.CreateData(parts, "m" + level);
    OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "sh" + level)
                           .Read(cur)
                           .Create(shuffled);
    OpCostModel c2;
    c2.cpu_complexity = rng->Uniform(0.5, 4.0);
    c2.output_selectivity = rng->Uniform(0.3, 1.0);
    OpHandle deser = graph.CreateOp(ResourceType::kCpu, "de" + level)
                         .Read(shuffled)
                         .Create(out)
                         .SetCost(c2);
    prev.To(shuffle, DepKind::kSync);
    shuffle.To(deser, DepKind::kAsync);
    prev = deser;
    cur = out;
  }
  return ExecutionPlan::Build(graph, rng->Next());
}

// Ancestor closure over the stage DAG (reflexive).
std::vector<std::vector<bool>> AncestorMatrix(const std::vector<std::vector<StageId>>& parents) {
  const size_t n = parents.size();
  std::vector<std::vector<bool>> anc(n, std::vector<bool>(n, false));
  for (size_t s = 0; s < n; ++s) {
    anc[s][s] = true;
  }
  // Iterate to a fixpoint instead of assuming stage ids are topologically
  // sorted — the invariant under test should not lean on plan internals.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t s = 0; s < n; ++s) {
      for (const StageId p : parents[s]) {
        for (size_t a = 0; a < n; ++a) {
          if (anc[static_cast<size_t>(p)][a] && !anc[s][a]) {
            anc[s][a] = true;
            changed = true;
          }
        }
      }
    }
  }
  return anc;  // anc[s][a]: a is an ancestor of s (or s itself).
}

void CheckTroublesomeInvariants(const ExecutionPlan& plan, double threshold) {
  const StageCriticality crit = AnalyzeStages(plan, threshold);
  const size_t n = plan.stages().size();
  ASSERT_EQ(crit.troublesome.size(), n);

  // Nonempty, and some member realizes the critical path itself.
  bool any = false;
  bool witness = false;
  for (size_t s = 0; s < n; ++s) {
    const double through = crit.top_level[s] + crit.bottom_level[s] - crit.work[s];
    EXPECT_TRUE(std::isfinite(through));
    EXPECT_LE(through, crit.critical_path + 1e-9);
    if (crit.troublesome[s]) {
      any = true;
      if (through >= crit.critical_path - 1e-9) {
        witness = true;
      }
    }
  }
  EXPECT_TRUE(any) << "troublesome subset empty at threshold " << threshold;
  EXPECT_TRUE(witness) << "no critical-path stage in the subset";

  // Convexity: s between two members (troublesome ancestor a and descendant
  // d with a ~> s ~> d) must itself be a member.
  const auto anc = AncestorMatrix(StageParents(plan));
  for (size_t s = 0; s < n; ++s) {
    if (crit.troublesome[s]) {
      continue;
    }
    bool has_troublesome_ancestor = false;
    bool has_troublesome_descendant = false;
    for (size_t o = 0; o < n; ++o) {
      if (!crit.troublesome[o] || o == s) {
        continue;
      }
      if (anc[s][o]) {
        has_troublesome_ancestor = true;
      }
      if (anc[o][s]) {
        has_troublesome_descendant = true;
      }
    }
    EXPECT_FALSE(has_troublesome_ancestor && has_troublesome_descendant)
        << "stage " << s << " lies between troublesome stages but is not troublesome";
  }

  // BottomShare is a valid bonus input everywhere.
  for (size_t s = 0; s < n; ++s) {
    const double share = crit.BottomShare(static_cast<StageId>(s));
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0 + 1e-9);
    if (!crit.troublesome[s]) {
      EXPECT_EQ(share, 0.0);
    }
  }
}

TEST(TroublesomeSubset, InvariantsHoldAcrossRandomDagsAndThresholds) {
  Lcg rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const ExecutionPlan plan = RandomChainPlan(&rng);
    for (const double threshold : {0.5, 0.8, 0.9, 1.0}) {
      CheckTroublesomeInvariants(plan, threshold);
    }
  }
}

TEST(TroublesomeSubset, RealWorkloadPlansAreCovered) {
  // The TPC-H job shapes have real fan-in/fan-out; same invariants.
  TpchWorkloadConfig config;
  config.num_jobs = 8;
  config.seed = 5;
  const Workload workload = MakeTpchWorkload(config);
  for (const WorkloadJob& wj : workload.jobs) {
    const ExecutionPlan plan = ExecutionPlan::Build(wj.spec.graph, wj.spec.seed);
    CheckTroublesomeInvariants(plan, 0.9);
  }
}

// --- Score contract. ---

WorkerLoad RandomLoad(Lcg* rng) {
  WorkerLoad load;
  for (int r = 0; r < static_cast<int>(kNumMonotaskResources); ++r) {
    load.d[r] = rng->Uniform();
    load.apt[r] = rng->Uniform(0.0, 10.0);
    load.rate[r] = rng->Uniform(1.0, 1e8);
  }
  load.d[static_cast<size_t>(ResourceDim::kMemory)] = rng->Uniform();
  load.memory_capacity = 8.0 * 1024 * 1024 * 1024;
  load.free_memory = rng->Uniform(0.0, load.memory_capacity);
  return load;
}

TaskUsage RandomUsage(Lcg* rng) {
  TaskUsage usage;
  for (size_t r = 0; r < kNumMonotaskResources; ++r) {
    usage.bytes[r] = rng->Next() % 3 == 0 ? 0.0 : rng->Uniform(0.0, 1e8);
  }
  usage.memory = rng->Uniform(0.0, 6.0 * 1024 * 1024 * 1024);
  return usage;
}

TEST(ScorePolicyContract, SeparableBoundDominatesEveryFeasibleScore) {
  // The bucketed scan cuts its walk with BoundScore, so a feasible score
  // above it would let the scan miss the linear scan's argmax. Each trial
  // draws a random load and task, bent toward one of the edge classes where
  // the score leaves the plain d_r * inc_r form; the counters prove the
  // sweep reaches every class with an accepted score. Forced memory
  // overcommit must always be vetoed: the scan prunes a worker on its d_mem
  // mask alone, which is only sound if the score never accepts a task past
  // the worker's free memory.
  const int headroom[kNumMonotaskResources] = {1, 1, 1};
  const int no_headroom[kNumMonotaskResources] = {0, 0, 0};
  const int net = static_cast<int>(ResourceType::kNetwork);
  Lcg rng(77);
  int accepted = 0;
  int network_ignored = 0;     // consider_network off, network bytes > 0.
  int idle_task = 0;           // A zero-byte dimension and zero memory.
  int drained = 0;             // A needed d_r == 0 with no headroom anywhere.
  int inc_above_d = 0;         // The Inc clamp binds.
  int overcommit_vetoed = 0;   // Memory demand past free memory, refused.
  for (int trial = 0; trial < 8000; ++trial) {
    WorkerLoad load = RandomLoad(&rng);
    TaskUsage usage = RandomUsage(&rng);
    const double ept = rng.Uniform(0.5, 10.0);
    const bool consider_network = rng.Next() % 2 == 0;
    const bool starved = rng.Next() % 4 == 0;
    bool overcommit = false;
    switch (rng.Next() % 6) {
      case 0:
        load.d[rng.Range(0, kNumMonotaskResources - 1)] = 0.0;
        break;
      case 1:
        usage.memory = 0.0;
        usage.bytes[rng.Range(0, kNumMonotaskResources - 1)] = 0.0;
        break;
      case 2:
        usage = TaskUsage{};  // No bytes and no memory at all.
        break;
      case 3:
        for (int r = 0; r < kNumMonotaskResources; ++r) {
          load.rate[r] = rng.Uniform(1.0, 1e3);  // Demand far above d_r.
        }
        break;
      case 4:
        usage.memory = load.free_memory + rng.Uniform(1.0, 1e9);
        overcommit = true;
        break;
      default:
        break;
    }
    double score = 0.0;
    const bool ok = Algorithm1Score(usage, load, ept, starved ? no_headroom : headroom,
                                    consider_network, &score);
    if (overcommit) {
      EXPECT_FALSE(ok) << "placed a task past the worker's free memory (trial " << trial
                       << ")";
      overcommit_vetoed += ok ? 0 : 1;
      continue;
    }
    if (!ok) {
      continue;
    }
    ++accepted;
    ASSERT_TRUE(std::isfinite(score));
    double key[kNumResourceDims];
    double coef[kNumResourceDims];
    BoundKeys(load, key);
    BoundCoefs(usage, ept, consider_network, coef);
    EXPECT_LE(score, BoundScore(coef, key, TieTerm(usage, load)))
        << "scored above the separable bound (trial " << trial << ")";

    network_ignored += !consider_network && usage.bytes[net] > 0.0 ? 1 : 0;
    bool zero_dim = false;
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      zero_dim = zero_dim || usage.bytes[r] <= 0.0;
      if (usage.bytes[r] <= 0.0 || (!consider_network && r == net)) {
        continue;
      }
      const double inc = usage.bytes[r] / std::max(load.rate[r], 1.0) / ept;
      drained += starved && load.d[r] <= 0.0 ? 1 : 0;
      inc_above_d += load.d[r] > 0.0 && inc > load.d[r] ? 1 : 0;
    }
    idle_task += zero_dim && usage.memory <= 0.0 ? 1 : 0;
  }
  EXPECT_GT(accepted, 0) << "vetoed every random input";
  EXPECT_GT(network_ignored, 0);
  EXPECT_GT(idle_task, 0);
  EXPECT_GT(drained, 0);
  EXPECT_GT(inc_above_d, 0);
  EXPECT_GT(overcommit_vetoed, 0);
}

TEST(OrderingRegistry, FlagsAndNamesRoundTrip) {
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    EXPECT_STREQ(OrderingPolicyName(info.policy), info.name);
    OrderingPolicy parsed;
    EXPECT_TRUE(ParseOrderingPolicy(info.flag, &parsed));
    EXPECT_EQ(parsed, info.policy);
  }
  OrderingPolicy policy;
  EXPECT_FALSE(ParseOrderingPolicy("bogus", &policy));
}

}  // namespace
}  // namespace ursa
