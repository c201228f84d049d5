// Regression tests for run-to-run determinism (DESIGN.md section 10): for a
// fixed seed, two runs of the same experiment must make bit-identical
// decisions. The placement sequence is the sharpest probe — Algorithm-1
// scoring visits workers and candidates in container order, so any stray
// unordered iteration or uninitialized read upstream shows up as a placement
// divergence long before it moves aggregate metrics.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/driver/experiment.h"
#include "src/obs/trace.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

struct Placement {
  double t;
  JobId job;
  TaskId task;
  StageId stage;
  WorkerId worker;

  bool operator==(const Placement& other) const {
    return t == other.t && job == other.job && task == other.task && stage == other.stage &&
           worker == other.worker;
  }
};

std::vector<Placement> PlacementsOf(const ExperimentResult& result) {
  std::vector<Placement> placements;
  for (const TraceEvent& event : result.trace->Snapshot()) {
    if (event.kind == TraceEventKind::kTaskPlaced) {
      placements.push_back({event.t, event.job, event.task, event.stage, event.worker});
    }
  }
  return placements;
}

void ExpectIdenticalRuns(const Workload& workload, ExperimentConfig config,
                         const std::string& scheme) {
  config.trace = true;
  const ExperimentResult a = RunExperiment(workload, config, scheme);
  const ExperimentResult b = RunExperiment(workload, config, scheme);

  // Placement-by-placement: same tasks, same workers, same simulated times,
  // in the same order.
  const std::vector<Placement> pa = PlacementsOf(a);
  const std::vector<Placement> pb = PlacementsOf(b);
  ASSERT_FALSE(pa.empty());
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i] == pb[i]) << scheme << " placement #" << i << " diverged: job "
                                << pa[i].job << " task " << pa[i].task << " -> worker "
                                << pa[i].worker << " vs job " << pb[i].job << " task "
                                << pb[i].task << " -> worker " << pb[i].worker;
  }

  // Aggregate metrics must be bit-equal, not approximately equal: floating
  // point is deterministic when the operation sequence is.
  EXPECT_EQ(a.makespan(), b.makespan());
  EXPECT_EQ(a.avg_jct(), b.avg_jct());
  EXPECT_EQ(a.efficiency.ue_cpu, b.efficiency.ue_cpu);
  EXPECT_EQ(a.efficiency.se_cpu, b.efficiency.se_cpu);
  EXPECT_EQ(a.efficiency.ue_mem, b.efficiency.ue_mem);

  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].submit_time, b.records[i].submit_time);
    EXPECT_EQ(a.records[i].admit_time, b.records[i].admit_time);
    EXPECT_EQ(a.records[i].finish_time, b.records[i].finish_time);
  }
}

Workload SeededTpch(int jobs, uint64_t seed) {
  TpchWorkloadConfig config;
  config.num_jobs = jobs;
  config.submit_interval = 4.0;
  config.seed = seed;
  return MakeTpchWorkload(config);
}

TEST(Determinism, UrsaEjfPlacementIsSeedStable) {
  ExpectIdenticalRuns(SeededTpch(8, 11), UrsaEjfConfig(), "ursa-ejf");
}

TEST(Determinism, UrsaSrjfPlacementIsSeedStable) {
  // SRJF re-ranks job priorities as remaining work shrinks, exercising the
  // Reprioritize path and the ordered tie-breaking in the monotask queues.
  ExpectIdenticalRuns(SeededTpch(8, 23), UrsaSrjfConfig(), "ursa-srjf");
}

TEST(Determinism, PackingPlacementIsSeedStable) {
  ExperimentConfig config = UrsaEjfConfig();
  config.ursa.placement = PlacementAlgorithm::kTetris;
  ExpectIdenticalRuns(SeededTpch(6, 5), config, "tetris");
}

TEST(Determinism, SyntheticMixedWorkloadIsSeedStable) {
  // Synthetic jobs drive the network flow simulator hardest; its per-flow
  // rate shares are recomputed on every topology change, so float
  // accumulation order (ordered flow map) is what keeps this bit-stable.
  const Workload workload = MakeSyntheticMixedWorkload(4, /*seed=*/17);
  ExpectIdenticalRuns(workload, UrsaEjfConfig(), "ursa-ejf");
}

// --- Hot-path self-checks (DESIGN.md section 12). ---
// With verify_hot_path on, every incremental load refresh is CHECKed against
// a full rescan and every bucketed BestWorker call against the linear scan,
// so a divergence aborts the verified run. Each test below also compares it
// with an unverified run: the self-checks must not change a decision or a
// counter.

// Hands the unverified run to `plain_out`, when set, for further checks.
void ExpectVerifiedHotPathMatches(const Workload& workload, ExperimentConfig config,
                                  const std::string& scheme,
                                  ExperimentResult* plain_out = nullptr) {
  config.trace = true;
  config.ursa.verify_hot_path = true;
  const ExperimentResult verified = RunExperiment(workload, config, scheme);
  config.ursa.verify_hot_path = false;
  const ExperimentResult plain = RunExperiment(workload, config, scheme);

  const std::vector<Placement> pv = PlacementsOf(verified);
  const std::vector<Placement> pp = PlacementsOf(plain);
  ASSERT_FALSE(pv.empty());
  ASSERT_EQ(pv.size(), pp.size());
  for (size_t i = 0; i < pv.size(); ++i) {
    EXPECT_TRUE(pv[i] == pp[i])
        << scheme << " placement #" << i << " diverged under verify_hot_path: job "
        << pv[i].job << " task " << pv[i].task << " -> worker " << pv[i].worker
        << " vs job " << pp[i].job << " task " << pp[i].task << " -> worker "
        << pp[i].worker;
  }
  EXPECT_EQ(verified.makespan(), plain.makespan());
  EXPECT_EQ(verified.avg_jct(), plain.avg_jct());
  EXPECT_EQ(verified.efficiency.ue_cpu, plain.efficiency.ue_cpu);
  EXPECT_EQ(verified.events_fired, plain.events_fired);
  const UrsaScheduler::SchedulerCounters& cv = verified.scheduler_counters;
  const UrsaScheduler::SchedulerCounters& cp = plain.scheduler_counters;
  EXPECT_EQ(cv.bestworker_calls, cp.bestworker_calls);
  EXPECT_EQ(cv.workers_scanned, cp.workers_scanned);
  EXPECT_EQ(cv.load_refreshes, cp.load_refreshes);
  ASSERT_EQ(verified.records.size(), plain.records.size());
  for (size_t i = 0; i < verified.records.size(); ++i) {
    EXPECT_EQ(verified.records[i].finish_time, plain.records[i].finish_time);
  }
  if (plain_out != nullptr) {
    *plain_out = plain;
  }
}

TEST(Determinism, VerifiedHotPathMatchesOnTpch) {
  const ExperimentConfig config = UrsaEjfConfig();
  ExperimentResult result;
  ExpectVerifiedHotPathMatches(SeededTpch(8, 11), config, "ursa-ejf", &result);
  // The threshold walk visits a fraction of the buckets; a walk that falls
  // back to visiting all of them (one per worker here) fails this count.
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  EXPECT_LT(4 * sc.workers_scanned, config.cluster.num_workers * sc.bestworker_calls);
}

TEST(Determinism, VerifiedHotPathWithPerWorkerRates) {
  // Workers learn their own processing rates, and degrade windows slow some
  // of them further, so nearly every load is distinct and each scan bucket
  // holds a single worker: the regime where the threshold walk, not the
  // bucketing, keeps BestWorker below one pass over the cluster.
  ExperimentConfig config = UrsaSrjfConfig();
  config.cluster.num_workers = 48;
  FaultPlanConfig pc;
  pc.seed = 5;
  pc.num_workers = config.cluster.num_workers;
  pc.horizon_end = 60.0;
  pc.degrades = 12;
  pc.degrade_factor = 0.4;
  pc.degrade_duration = 20.0;
  config.fault_plan = MakeRandomFaultPlan(pc);
  ExperimentResult result;
  ExpectVerifiedHotPathMatches(SeededTpch(10, 19), config, "ursa-srjf", &result);
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  EXPECT_LT(4 * sc.workers_scanned, config.cluster.num_workers * sc.bestworker_calls);
}

TEST(Determinism, VerifiedHotPathWithStagesWiderThanTheCluster) {
  // 512-task stages on 6 workers: every candidate moves all workers into the
  // overlay, so each base bucket dies mid-candidate and the walk must skip
  // dead buckets and leave the rest of the call to the overlay pass.
  const Workload workload = MakePlacementStressWorkload(6, /*seed=*/3);
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 6;
  config.ursa.max_scored_pairs_per_tick = size_t{1} << 40;
  ExpectVerifiedHotPathMatches(workload, config, "ursa-ejf");
}

TEST(Determinism, VerifiedHotPathWithByteFreeTasks) {
  // Tasks reading empty partitions carry no bytes in any resource, so only
  // the memory list is walked (the estimator gives every task memory; with
  // none the same walk would visit every bucket).
  Workload workload;
  workload.name = "byte-free";
  for (int i = 0; i < 4; ++i) {
    WorkloadJob job;
    job.spec.name = "empty-" + std::to_string(i);
    job.spec.declared_memory_bytes = 1e9;
    job.spec.seed = static_cast<uint64_t>(i) + 1;
    OpGraph& graph = job.spec.graph;
    const DataId input = graph.CreateExternalData(std::vector<double>(32, 0.0), "in");
    graph.CreateOp(ResourceType::kCpu, "noop").Read(input).Create(graph.CreateData(32, "out"));
    job.submit_time = 0.3 * i;
    workload.jobs.push_back(std::move(job));
  }
  ExpectVerifiedHotPathMatches(workload, UrsaEjfConfig(), "ursa-ejf");
}

TEST(Determinism, VerifiedHotPathWithAvoidedTopWorker) {
  // One attempt per monotask: every injected transient failure escalates,
  // and the task is re-placed avoiding the worker it just left. That worker
  // has just released the task, so on a 3-worker cluster with per-worker
  // rates it is often the best-scoring single-member bucket, whose only
  // fresh member is the avoided one.
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 3;
  config.ursa.fault.max_monotask_attempts = 1;
  FaultPlanConfig pc;
  pc.seed = 11;
  pc.num_workers = config.cluster.num_workers;
  pc.horizon_end = 80.0;
  pc.transients = 40;
  config.fault_plan = MakeRandomFaultPlan(pc);
  ExperimentResult result;
  ExpectVerifiedHotPathMatches(SeededTpch(4, 29), config, "ursa-ejf", &result);
  EXPECT_GT(result.faults.escalations, 10);
}

TEST(Determinism, VerifiedHotPathMatchesOnSyntheticSrjf) {
  ExpectVerifiedHotPathMatches(MakeSyntheticMixedWorkload(4, /*seed=*/9), UrsaSrjfConfig(),
                           "ursa-srjf");
}

// SRJF with speculation, a worker crash and rejoin, and transient failures.
ExperimentConfig SrjfChaosConfig() {
  ExperimentConfig config = UrsaSrjfConfig();
  config.ursa.spec.enabled = true;
  config.ursa.spec.budget_fraction = 0.2;
  FaultPlanConfig pc;
  pc.seed = 7;
  pc.num_workers = config.cluster.num_workers;
  pc.horizon_end = 80.0;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.transients = 3;
  config.fault_plan = MakeRandomFaultPlan(pc);
  return config;
}

TEST(Determinism, VerifiedHotPathMatchesUnderChaos) {
  // Fault recovery rebuilds worker state behind the scheduler's back and
  // speculation places through the same overlay as primary placement — the
  // two paths most likely to miss a dirty mark or stale bucket.
  ExpectVerifiedHotPathMatches(SeededTpch(6, 31), SrjfChaosConfig(), "ursa-srjf");
}

TEST(Determinism, VerifiedHotPathMatchesOnOpenLoop) {
  ExperimentConfig config = UrsaEjfConfig();
  config.open_loop.enabled = true;
  config.open_loop.seed = 13;
  config.open_loop.arrival_rate = 2.0;
  config.open_loop.max_jobs = 30;
  config.ursa.admission.enabled = true;
  config.ursa.admission.max_pending = 6;
  ExpectVerifiedHotPathMatches(Workload{}, config, "ursa-ejf");
}

TEST(Determinism, VerifiedHotPathOnPlacementStress) {
  // bench_scale's 300-worker shape (75 jobs x 512 single-stage CPU tasks):
  // uniform tasks on uniform workers collapse the loads into a few scan and
  // overlay buckets with many members each — the regime the bucketed scan is
  // built for, which the small clusters above never reach. Every call is
  // cross-checked against the linear scan.
  const Workload workload = MakePlacementStressWorkload(300, /*seed=*/42);
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 300;
  config.ursa.verify_hot_path = true;
  config.ursa.max_scored_pairs_per_tick = size_t{1} << 40;  // As bench_scale.
  config.trace = true;
  config.trace_sample = 1 << 20;  // Ticks and task events only.
  const ExperimentResult result = RunExperiment(workload, config, "ursa-ejf");

  int64_t monotasks = 0;
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    monotasks += static_cast<int64_t>(
        Job::Create(static_cast<JobId>(i), workload.jobs[i].spec)->plan.monotasks().size());
  }
  EXPECT_EQ(result.trace->tick_summary().placed, monotasks);
  // The bucketed regime: a BestWorker call examines a handful of buckets,
  // not the 300 workers a linear scan visits.
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  EXPECT_LT(sc.workers_scanned, 30 * sc.bestworker_calls);
}

// --- Flow-model refill (DESIGN.md section 12). ---
// A flow start or finish recomputes only the share of the receiver it
// touches. Debug builds recount every receiver's flows after each refill.

TEST(Determinism, FlowRefillVisitsOnlyTheTouchedReceivers) {
  // Both sums run over the same refills, so this is mean flows visited per
  // refill < 0.25 x mean live flows per refill. A refill over every flow
  // fails it.
  const ExperimentResult result = RunExperiment(SeededTpch(8, 11), UrsaEjfConfig(), "ursa-ejf");
  const FlowSimulator::RefillStats& stats = result.flow_refills;
  ASSERT_GT(stats.refills, 0);
  EXPECT_LT(4 * stats.flows_visited, stats.live_flows)
      << stats.refills << " refills visited " << stats.flows_visited << " flows of "
      << stats.live_flows << " live";
}

TEST(Determinism, TruncatedGatherRotatesAndFinishes) {
  // A candidate budget small enough to truncate every tick must still finish
  // the workload (the rotation cursor keeps deferred jobs from starving) and
  // must report the truncation it did.
  ExperimentConfig config = UrsaEjfConfig();
  config.ursa.max_scored_pairs_per_tick = 200;
  const Workload workload = SeededTpch(6, 11);
  const ExperimentResult result = RunExperiment(workload, config, "ursa-ejf");
  EXPECT_GT(result.scheduler_counters.scoring_truncated, 0);
  ASSERT_EQ(result.records.size(), workload.jobs.size());
  for (const JobRecord& record : result.records) {
    EXPECT_GE(record.finish_time, 0.0);
  }
  // And truncated runs are themselves seed-stable.
  const ExperimentResult again = RunExperiment(workload, config, "ursa-ejf");
  EXPECT_EQ(result.makespan(), again.makespan());
  EXPECT_EQ(result.scheduler_counters.scoring_truncated,
            again.scheduler_counters.scoring_truncated);
}

// --- Scheduling policies (DESIGN.md section 13). ---
// Graphene must satisfy the same determinism contract as the default
// orderings: same-seed bit-identical placement, and a hot path that passes
// its verify_hot_path self-checks.

TEST(Determinism, GraphenePlacementIsSeedStable) {
  // Graphene layers the troublesome-stage bonus on its SRJF base; the
  // criticality analysis is recomputed per admission and must be pure.
  ExpectIdenticalRuns(SeededTpch(8, 23), UrsaOrderingConfig(OrderingPolicy::kGraphene),
                      "ursa-graphene");
}

TEST(Determinism, VerifiedHotPathMatchesOnGraphene) {
  ExpectVerifiedHotPathMatches(SeededTpch(8, 11), UrsaOrderingConfig(OrderingPolicy::kGraphene),
                               "ursa-graphene");
}

TEST(Determinism, SpeculationAndFaultsAreSeedStable) {
  // Chaos path: seeded fault plan plus speculation. Recovery resets and
  // first-finisher-wins races all replay identically for a fixed seed.
  ExperimentConfig config = UrsaEjfConfig();
  config.ursa.spec.enabled = true;
  config.ursa.spec.budget_fraction = 0.2;
  FaultPlanConfig pc;
  pc.seed = 3;
  pc.num_workers = config.cluster.num_workers;
  pc.horizon_end = 60.0;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.transients = 4;
  config.fault_plan = MakeRandomFaultPlan(pc);

  const Workload workload = SeededTpch(6, 31);
  config.trace = true;
  const ExperimentResult a = RunExperiment(workload, config, "ursa-ejf");
  const ExperimentResult b = RunExperiment(workload, config, "ursa-ejf");
  EXPECT_EQ(PlacementsOf(a).size(), PlacementsOf(b).size());
  EXPECT_EQ(a.makespan(), b.makespan());
  const FaultCounters fa = a.faults;
  const FaultCounters fb = b.faults;
  EXPECT_EQ(fa.detections, fb.detections);
  EXPECT_EQ(fa.tasks_reset, fb.tasks_reset);
  EXPECT_EQ(fa.retries, fb.retries);
  EXPECT_EQ(fa.speculations_launched, fb.speculations_launched);
  EXPECT_EQ(fa.total_wasted_seconds(), fb.total_wasted_seconds());
}

}  // namespace
}  // namespace ursa
