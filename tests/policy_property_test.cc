// Property tests for the scheduling-policy framework (DESIGN.md section 13):
// invariants that must hold for every input, checked over seeded sweeps
// rather than hand-picked examples.
//
//   - Troublesome-subset structure: nonempty, contains a full critical-path
//     witness, and convex-closed (any stage between two members is a
//     member) across generated DAG shapes and thresholds.
//   - Score-policy contract: the separable score bound dominates every
//     feasible Score of every bucketable policy; the Tetris score never accepts a
//     worker without memory headroom; feasibility vetoes agree with
//     Algorithm 1's (same masks drive the bucketed scan for both).
//   - Co-location learner: contention EMAs stay finite and bounded in
//     [0, 1], complementarity is symmetric and bonuses stay in [0, 1], even
//     after a chaos + speculation run where residency churns through crashes
//     and spec copies.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dag/critical_path.h"
#include "src/dag/job.h"
#include "src/driver/experiment.h"
#include "src/scheduler/colocation.h"
#include "src/scheduler/placement_policy.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/synthetic.h"
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
    const DataId shuffled = graph.CreateData(parts, "s" + std::to_string(d));
    const DataId out = graph.CreateData(parts, "m" + std::to_string(d));
    OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "sh" + std::to_string(d))
                           .Read(cur)
                           .Create(shuffled);
    OpCostModel c2;
    c2.cpu_complexity = rng->Uniform(0.5, 4.0);
    c2.output_selectivity = rng->Uniform(0.3, 1.0);
    OpHandle deser = graph.CreateOp(ResourceType::kCpu, "de" + std::to_string(d))
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

// --- Score-policy contract. ---

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
  // a policy's score leaves the plain d_r * inc_r form; the counters prove
  // the sweep reaches every class with an accepted score.
  const int headroom[kNumMonotaskResources] = {1, 1, 1};
  const int no_headroom[kNumMonotaskResources] = {0, 0, 0};
  const int net = static_cast<int>(ResourceType::kNetwork);
  Lcg rng(77);
  const ScoreContext ctx;
  for (const ScorePolicyInfo& info : ScorePolicyRegistry()) {
    const auto policy = MakeScorePolicy(info.kind);
    ASSERT_TRUE(policy->bucketable()) << info.flag;
    int accepted = 0;
    int network_ignored = 0;    // consider_network off, network bytes > 0.
    int idle_task = 0;          // A zero-byte dimension and zero memory.
    int drained = 0;            // A needed d_r == 0 with no headroom anywhere.
    int inc_above_d = 0;        // Algorithm 1's Inc clamp binds.
    int inc_above_one = 0;      // Tetris's demand clamp binds.
    for (int trial = 0; trial < 8000; ++trial) {
      WorkerLoad load = RandomLoad(&rng);
      TaskUsage usage = RandomUsage(&rng);
      const double ept = rng.Uniform(0.5, 10.0);
      const bool consider_network = rng.Next() % 2 == 0;
      const bool starved = rng.Next() % 4 == 0;
      switch (rng.Next() % 5) {
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
            load.rate[r] = rng.Uniform(1.0, 1e3);  // Demand far above 1.
          }
          break;
        default:
          break;
      }
      double score = 0.0;
      if (!policy->Score(usage, load, /*worker=*/0, ept, starved ? no_headroom : headroom,
                         consider_network, ctx, &score)) {
        continue;
      }
      ++accepted;
      ASSERT_TRUE(std::isfinite(score));
      double key[kNumResourceDims];
      double coef[kNumResourceDims];
      BoundKeys(load, key);
      BoundCoefs(usage, ept, consider_network, coef);
      EXPECT_LE(score, BoundScore(coef, key, TieTerm(usage, load)))
          << info.flag << " scored above the separable bound (trial " << trial << ")";

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
        inc_above_one += inc > 1.0 ? 1 : 0;
      }
      idle_task += zero_dim && usage.memory <= 0.0 ? 1 : 0;
    }
    EXPECT_GT(accepted, 0) << info.flag << " vetoed every random input";
    EXPECT_GT(network_ignored, 0) << info.flag;
    EXPECT_GT(idle_task, 0) << info.flag;
    EXPECT_GT(drained, 0) << info.flag;
    EXPECT_GT(inc_above_d, 0) << info.flag;
    EXPECT_GT(inc_above_one, 0) << info.flag;
  }
}

TEST(ScorePolicyContract, TetrisNeverAcceptsWithoutMemoryHeadroom) {
  const int headroom[kNumMonotaskResources] = {1, 1, 1};
  Lcg rng(99);
  TetrisDotScorePolicy tetris;
  Algorithm1ScorePolicy alg1;
  const ScoreContext ctx;
  for (int trial = 0; trial < 4000; ++trial) {
    WorkerLoad load = RandomLoad(&rng);
    TaskUsage usage = RandomUsage(&rng);
    // Forced overcommit: demand strictly exceeds the worker's free memory.
    usage.memory = load.free_memory + rng.Uniform(1.0, 1e9);
    double score = 0.0;
    EXPECT_FALSE(tetris.Score(usage, load, 0, 1.0, headroom, true, ctx, &score))
        << "Tetris placed a task past the worker's free memory";
    // And the two feasibility rules agree in general (shared scan masks).
    usage = RandomUsage(&rng);
    load = RandomLoad(&rng);
    double s1 = 0.0;
    double s2 = 0.0;
    EXPECT_EQ(alg1.Score(usage, load, 0, 1.0, headroom, true, ctx, &s1),
              tetris.Score(usage, load, 0, 1.0, headroom, true, ctx, &s2));
  }
}

TEST(ScorePolicyContract, RegistriesAreConsistent) {
  for (const ScorePolicyInfo& info : ScorePolicyRegistry()) {
    const auto policy = MakeScorePolicy(info.kind);
    EXPECT_STREQ(policy->name(), info.flag);
    EXPECT_STREQ(PlacementScoreKindName(info.kind), info.flag);
    PlacementScoreKind parsed;
    EXPECT_TRUE(ParsePlacementScoreKind(info.flag, &parsed));
    EXPECT_EQ(parsed, info.kind);
  }
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    EXPECT_STREQ(OrderingPolicyName(info.policy), info.name);
    OrderingPolicy parsed;
    EXPECT_TRUE(ParseOrderingPolicy(info.flag, &parsed));
    EXPECT_EQ(parsed, info.policy);
  }
  PlacementScoreKind kind;
  EXPECT_FALSE(ParsePlacementScoreKind("bogus", &kind));
  OrderingPolicy policy;
  EXPECT_FALSE(ParseOrderingPolicy("bogus", &policy));
}

// --- Co-location learner. ---

void CheckLearnerInvariants(const ColocationLearner& learner) {
  for (const auto& [pair, ema] : learner.pair_contention()) {
    EXPECT_TRUE(std::isfinite(ema));
    EXPECT_GE(ema, 0.0);
    EXPECT_LE(ema, 1.0);
    EXPECT_LT(pair.first, pair.second) << "pair keys must be stored ordered";
    // Symmetry: lookup must not depend on argument order.
    EXPECT_EQ(learner.Complementarity(pair.first, pair.second),
              learner.Complementarity(pair.second, pair.first));
  }
  // Bonuses over arbitrary resident sets stay in [0, 1] (attraction-only).
  std::vector<int> everyone;
  for (size_t k = 0; k < learner.num_keys(); ++k) {
    everyone.push_back(static_cast<int>(k));
  }
  for (size_t k = 0; k < learner.num_keys(); ++k) {
    const double bonus = learner.PlacementBonus(static_cast<int>(k), everyone);
    EXPECT_GE(bonus, 0.0);
    EXPECT_LE(bonus, 1.0);
  }
  // Unknown keys and self-pairs are neutral.
  EXPECT_EQ(learner.Complementarity(-1, 0), 0.0);
  EXPECT_EQ(learner.Complementarity(0, 0), 0.0);
  EXPECT_EQ(learner.PlacementBonus(-1, everyone), 0.0);
}

TEST(ColocationLearner, SyntheticObservationsStayBounded) {
  ColocationConfig config;
  ColocationLearner learner(config);
  const int a = learner.InternKey("q1", "map");
  const int b = learner.InternKey("q1", "reduce");
  const int c = learner.InternKey("q2", "map");
  EXPECT_EQ(learner.InternKey("q1", "map"), a) << "interning must be stable";
  Lcg rng(123);
  for (int tick = 0; tick < 500; ++tick) {
    // Contention samples outside [0, 1] must be clamped, not propagated.
    const std::vector<std::vector<int>> residents = {{a, b}, {b, c}, {a}, {}};
    const std::vector<double> contention = {rng.Uniform(-0.5, 1.5), rng.Uniform(),
                                            rng.Uniform(), 0.0};
    learner.ObserveTick(residents, contention);
  }
  EXPECT_EQ(learner.num_keys(), 3u);
  EXPECT_EQ(learner.num_pairs(), 2u);  // (a,b) and (b,c); singletons carry none.
  EXPECT_GT(learner.observations(), 0);
  CheckLearnerInvariants(learner);
}

TEST(ColocationLearner, BoundedAfterChaosAndSpeculationRun) {
  // Full end-to-end churn: crashes, recoveries and speculative copies all
  // feed the per-tick residency snapshot; the learned state must still obey
  // every invariant, and the run must stay seed-stable (checked separately
  // in determinism_test.cc). Direct scheduler construction so the learner
  // outlives the run for inspection.
  Simulator sim;
  ClusterConfig cluster_config;
  cluster_config.num_workers = 8;
  Cluster cluster(&sim, cluster_config);
  UrsaSchedulerConfig sc;
  sc.policy = OrderingPolicy::kSrjf;
  sc.colocation.enabled = true;
  sc.spec.enabled = true;
  sc.spec.budget_fraction = 0.2;
  UrsaScheduler scheduler(&sim, &cluster, sc);

  FaultPlanConfig pc;
  pc.seed = 11;
  pc.num_workers = cluster_config.num_workers;
  pc.horizon_end = 60.0;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.transients = 2;
  FaultInjector injector(&sim, &cluster, MakeRandomFaultPlan(pc),
                         scheduler.mutable_fault_stats());
  injector.Arm();

  const Workload workload = MakeSyntheticMixedWorkload(4, /*seed=*/31);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    const WorkloadJob& wj = workload.jobs[i];
    sim.ScheduleAt(wj.submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  sim.Run(200000.0);
  ASSERT_TRUE(scheduler.AllJobsFinished());

  const ColocationLearner* learner = scheduler.colocation_learner();
  ASSERT_NE(learner, nullptr);
  EXPECT_GT(learner->num_keys(), 0u);
  EXPECT_GT(learner->observations(), 0);
  CheckLearnerInvariants(*learner);
}

}  // namespace
}  // namespace ursa
