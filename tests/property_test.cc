// Property-based tests over randomly generated (valid) job DAGs: plan
// compilation invariants, end-to-end execution invariants, and determinism
// of whole experiments.
#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/driver/experiment.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

// Generates a random layered dataflow: alternating CPU chains and shuffles,
// with occasional side tables joined in - always structurally valid.
JobSpec RandomJobSpec(uint64_t seed) {
  Rng rng(seed);
  JobSpec spec;
  spec.name = "random" + std::to_string(seed);
  spec.declared_memory_bytes = 8e9;
  spec.seed = seed;
  OpGraph& graph = spec.graph;

  int parallelism = static_cast<int>(rng.UniformInt(static_cast<int64_t>(2), 12));
  std::vector<double> sizes(static_cast<size_t>(parallelism),
                            rng.Uniform(1e6, 1e8));
  const DataId input = graph.CreateExternalData(std::move(sizes), "in");
  DataId current = graph.CreateData(parallelism, "d0");
  OpCostModel cost;
  cost.cpu_complexity = rng.Uniform(0.5, 3.0);
  cost.output_selectivity = rng.Uniform(0.3, 1.2);
  OpHandle prev = graph.CreateOp(ResourceType::kCpu, "scan")
                      .Read(input)
                      .Create(current)
                      .SetCost(cost);
  const int layers = static_cast<int>(rng.UniformInt(static_cast<int64_t>(1), 6));
  for (int layer = 0; layer < layers; ++layer) {
    // Optional extra CPU op in the same stage (chained async).
    if (rng.Bernoulli(0.4)) {
      const DataId mapped = graph.CreateData(parallelism, "m" + std::to_string(layer));
      OpHandle map_op = graph.CreateOp(ResourceType::kCpu, "map" + std::to_string(layer))
                            .Read(current)
                            .Create(mapped)
                            .SetCost(cost);
      prev.To(map_op, DepKind::kAsync);
      prev = map_op;
      current = mapped;
    }
    const int next_parallelism =
        static_cast<int>(rng.UniformInt(static_cast<int64_t>(2), 12));
    const DataId shuffled =
        graph.CreateData(next_parallelism, "s" + std::to_string(layer));
    OpCostModel shuffle_cost;
    shuffle_cost.output_skew = rng.Uniform(1.0, 3.0);
    OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "sh" + std::to_string(layer))
                           .Read(current)
                           .Create(shuffled)
                           .SetCost(shuffle_cost);
    prev.To(shuffle, DepKind::kSync);
    const DataId reduced =
        graph.CreateData(next_parallelism, "r" + std::to_string(layer));
    OpHandle reduce = graph.CreateOp(ResourceType::kCpu, "red" + std::to_string(layer))
                          .Read(shuffled)
                          .Create(reduced)
                          .SetCost(cost);
    shuffle.To(reduce, DepKind::kAsync);
    prev = reduce;
    current = reduced;
    parallelism = next_parallelism;
  }
  if (rng.Bernoulli(0.5)) {
    OpHandle write = graph.CreateOp(ResourceType::kDisk, "write")
                         .Read(current)
                         .SetParallelism(parallelism);
    prev.To(write, DepKind::kAsync);
  }
  graph.Validate();
  return spec;
}

class PlanInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanInvariants, StructuralInvariantsHold) {
  const JobSpec spec = RandomJobSpec(GetParam());
  const ExecutionPlan plan = ExecutionPlan::Build(spec.graph, GetParam());

  // 1. Every monotask belongs to exactly one task; tasks partition them.
  std::set<MonotaskId> seen;
  for (const TaskSpec& task : plan.tasks()) {
    for (MonotaskId m : task.monotasks) {
      EXPECT_TRUE(seen.insert(m).second) << "monotask in two tasks";
      EXPECT_EQ(plan.monotask(m).task, task.id);
    }
  }
  EXPECT_EQ(seen.size(), plan.monotasks().size());

  // 2. Every task belongs to its stage's task list; indices are dense.
  for (const StageSpec& stage : plan.stages()) {
    EXPECT_EQ(static_cast<int>(stage.tasks.size()), stage.num_tasks);
    for (size_t i = 0; i < stage.tasks.size(); ++i) {
      const TaskSpec& task = plan.task(stage.tasks[i]);
      EXPECT_EQ(task.stage, stage.id);
      EXPECT_EQ(task.index, static_cast<int>(i));
    }
  }

  // 3. In-task dependencies stay within the task and point backwards in the
  // topological order of its monotask list.
  for (const TaskSpec& task : plan.tasks()) {
    std::set<MonotaskId> members(task.monotasks.begin(), task.monotasks.end());
    std::set<MonotaskId> before;
    for (MonotaskId m : task.monotasks) {
      for (MonotaskId dep : plan.monotask(m).intask_deps) {
        EXPECT_TRUE(members.count(dep)) << "in-task dep crosses tasks";
        EXPECT_TRUE(before.count(dep)) << "in-task dep not topologically ordered";
      }
      before.insert(m);
    }
  }

  // 4. Async parent tasks share the partition index; sync parents are whole
  // stages distinct from the task's own stage.
  for (const TaskSpec& task : plan.tasks()) {
    for (TaskId parent : task.async_parents) {
      EXPECT_EQ(plan.task(parent).index, task.index);
      EXPECT_NE(plan.task(parent).stage, task.stage);
    }
    for (StageId stage : task.sync_parent_stages) {
      EXPECT_NE(stage, task.stage);
    }
  }

  // 5. Slice weights stay positive with mean 1.
  for (const CollapsedOp& cop : plan.cops()) {
    double total = 0.0;
    for (double w : cop.slice_weights) {
      EXPECT_GT(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total / cop.parallelism, 1.0, 1e-9);
  }
}

TEST_P(PlanInvariants, ExecutesToCompletionUnderUrsa) {
  Workload workload;
  workload.name = "random";
  WorkloadJob job;
  job.spec = RandomJobSpec(GetParam());
  workload.jobs.push_back(std::move(job));
  const ExperimentResult result = RunExperiment(workload, UrsaEjfConfig(), "ursa");
  EXPECT_GT(result.records[0].jct(), 0.0);
  // UE is 100% by construction in Ursa (allocation == use).
  EXPECT_NEAR(result.efficiency.ue_cpu, 100.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanInvariants, ::testing::Range<uint64_t>(1, 21));

TEST(Determinism, IdenticalSeedsGiveIdenticalExperiments) {
  TpchWorkloadConfig wc;
  wc.num_jobs = 8;
  wc.seed = 99;
  const Workload workload = MakeTpchWorkload(wc);
  const ExperimentResult a = RunExperiment(workload, UrsaEjfConfig(), "a");
  const ExperimentResult b = RunExperiment(workload, UrsaEjfConfig(), "b");
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].finish_time, b.records[i].finish_time);
  }
  EXPECT_DOUBLE_EQ(a.efficiency.se_cpu, b.efficiency.se_cpu);
}

TEST(Determinism, DifferentSeedsDiffer) {
  TpchWorkloadConfig wc;
  wc.num_jobs = 8;
  wc.seed = 99;
  const Workload a_workload = MakeTpchWorkload(wc);
  wc.seed = 100;
  const Workload b_workload = MakeTpchWorkload(wc);
  const ExperimentResult a = RunExperiment(a_workload, UrsaEjfConfig(), "a");
  const ExperimentResult b = RunExperiment(b_workload, UrsaEjfConfig(), "b");
  EXPECT_NE(a.makespan(), b.makespan());
}

class AblationCompletes : public ::testing::TestWithParam<int> {};

TEST_P(AblationCompletes, EveryConfigurationFinishesTheWorkload) {
  TpchWorkloadConfig wc;
  wc.num_jobs = 5;
  wc.submit_interval = 2.0;
  wc.seed = 17;
  const Workload workload = MakeTpchWorkload(wc);
  ExperimentConfig config = UrsaEjfConfig();
  switch (GetParam()) {
    case 0:
      config.ursa.stage_aware = false;
      break;
    case 1:
      config.ursa.consider_network = false;
      break;
    case 2:
      config.ursa.enable_job_ordering = false;
      break;
    case 3:
      config.ursa.enable_monotask_ordering = false;
      break;
    case 4:
      config.ursa.scheduling_interval = 1.0;
      break;
    case 5:
      config.ursa.policy = OrderingPolicy::kSrjf;
      config.ursa.enable_job_ordering = false;
      break;
    case 6:
      config.cluster.worker.network_concurrency = 1;
      break;
    case 7:
      config.cluster.worker.network_concurrency = 4;
      break;
  }
  const ExperimentResult result = RunExperiment(workload, config, "ablation");
  EXPECT_EQ(result.records.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Configs, AblationCompletes, ::testing::Range(0, 8));

// Chaos fuzz over the worker resource counters: under a random mix of
// crashes, recoveries, transient monotask failures, speed-factor churn and
// speculative cancellations, busy_cores / busy_disks / active_network /
// running_bytes must never go negative or exceed capacity, and everything
// must return to zero once the workload drains.
class ChaosInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosInvariants, WorkerCountersNeverGoNegativeAndDrainToZero) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 1);
  Simulator sim;
  ClusterConfig cc;
  cc.num_workers = 5;
  cc.worker.cores = 8;
  cc.worker.cpu_byte_rate = 100e6;
  Cluster cluster(&sim, cc);
  UrsaSchedulerConfig sc;
  sc.spec.enabled = true;  // Speculative cancellations join the chaos mix.
  sc.spec.slowdown_threshold = 1.3;
  UrsaScheduler scheduler(&sim, &cluster, sc);

  TpchWorkloadConfig wc;
  wc.num_jobs = 6;
  wc.submit_interval = 2.0;
  wc.seed = seed;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }

  const auto check = [&] {
    for (int w = 0; w < cluster.size(); ++w) {
      const Worker& worker = cluster.worker(w);
      EXPECT_GE(worker.busy_cores(), 0) << "worker " << w;
      EXPECT_LE(worker.busy_cores(), cc.worker.cores) << "worker " << w;
      EXPECT_GE(worker.busy_disks(), 0) << "worker " << w;
      EXPECT_GE(worker.active_network(), 0) << "worker " << w;
      for (int r = 0; r < kNumMonotaskResources; ++r) {
        EXPECT_GE(worker.running_bytes(static_cast<ResourceType>(r)), -1e-3)
            << "worker " << w << " resource " << r;
      }
    }
  };

  // One guaranteed straggler so speculation reliably participates.
  sim.ScheduleAt(1.0, [&] { cluster.worker(1).set_speed_factor(0.1); });
  // Random chaos script. Actions pick their victim at fire time so the mix
  // adapts to the current cluster state (never kill a third worker, only
  // recover dead ones).
  for (int i = 0; i < 14; ++i) {
    sim.ScheduleAt(rng.Uniform(1.0, 30.0), [&] {
      const int w = static_cast<int>(
          rng.UniformInt(static_cast<int64_t>(0), cluster.size() - 1));
      Worker& worker = cluster.worker(w);
      int failed = 0;
      for (int j = 0; j < cluster.size(); ++j) {
        failed += cluster.worker(j).failed() ? 1 : 0;
      }
      switch (rng.UniformInt(static_cast<int64_t>(0), 3)) {
        case 0:
          if (!worker.failed() && failed < 2) {
            scheduler.FailWorker(w);
          }
          break;
        case 1:
          if (worker.failed()) {
            worker.Recover();  // The heartbeat detector rejoins it.
          }
          break;
        case 2:
          if (!worker.failed()) {
            worker.set_speed_factor(rng.Uniform(0.05, 1.0));
          }
          break;
        case 3:
          if (!worker.failed()) {
            worker.InjectTransientFailures(2);
          }
          break;
      }
      check();
    });
  }
  // Steady sampling of the invariants while the chaos plays out.
  for (int i = 1; i <= 40; ++i) {
    sim.ScheduleAt(static_cast<double>(i), check);
  }
  sim.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished()) << "seed " << seed;
  // Drained: every healthy worker is fully idle with clean memory books.
  for (int w = 0; w < cluster.size(); ++w) {
    const Worker& worker = cluster.worker(w);
    if (worker.failed()) {
      continue;
    }
    EXPECT_EQ(worker.busy_cores(), 0) << "worker " << w;
    EXPECT_EQ(worker.busy_disks(), 0) << "worker " << w;
    EXPECT_EQ(worker.active_network(), 0) << "worker " << w;
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      EXPECT_NEAR(worker.running_bytes(static_cast<ResourceType>(r)), 0.0, 1e-3);
    }
    EXPECT_NEAR(worker.free_memory(), worker.memory_capacity(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosInvariants, ::testing::Range<uint64_t>(1, 6));

// Control-plane chaos (DESIGN.md section 14): with the lossy message layer,
// mid-run scheduler crashes and a worker failure all active, execution must
// stay at-most-once per attempt. The observable: every job finishes, and
// every worker drains to zero with clean memory books — a duplicate dispatch
// that ran twice, or a restored placement that double-charged memory, would
// leak busy counters or allocation permanently.
class CtrlChaosInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CtrlChaosInvariants, ExactlyOnceObservablesHoldUnderMessageChaos) {
  const uint64_t seed = GetParam();
  Simulator sim;
  ClusterConfig cc;
  cc.num_workers = 5;
  cc.worker.cores = 8;
  cc.worker.cpu_byte_rate = 100e6;
  Cluster cluster(&sim, cc);
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.seed = seed;
  sc.ctrl.loss_prob = 0.1;
  sc.ctrl.dup_prob = 0.1;
  sc.ctrl.delay_prob = 0.1;
  // Odd seeds journal, even seeds exercise the full-restart fallback.
  sc.ctrl.checkpoint_interval = (seed % 2 == 1) ? 1.0 : 0.0;
  sc.spec.enabled = true;  // Speculative channels join the dedup surface.
  sc.spec.slowdown_threshold = 1.3;
  UrsaScheduler scheduler(&sim, &cluster, sc);

  TpchWorkloadConfig wc;
  wc.num_jobs = 6;
  wc.submit_interval = 2.0;
  wc.seed = seed;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  sim.ScheduleAt(4.0 + static_cast<double>(seed), [&] { scheduler.FailWorker(2); });
  sim.ScheduleAt(8.0 + static_cast<double>(seed),
                 [&] { scheduler.InjectSchedulerCrash(2.0); });
  sim.Run();

  EXPECT_TRUE(scheduler.AllJobsFinished()) << "seed " << seed;
  const FaultCounters& c = scheduler.fault_stats();
  EXPECT_EQ(c.scheduler_crashes, 1);
  EXPECT_EQ(c.scheduler_recoveries, 1);
  EXPECT_GT(c.msgs_lost, 0);
  EXPECT_GT(c.msgs_duplicated, 0);
  // Every duplicated or retransmitted dispatch that landed twice was
  // suppressed by the worker-side dedup, never run twice.
  EXPECT_GE(c.dup_suppressed, 0);
  for (int w = 0; w < cluster.size(); ++w) {
    const Worker& worker = cluster.worker(w);
    if (worker.failed()) {
      continue;
    }
    EXPECT_EQ(worker.busy_cores(), 0) << "worker " << w;
    EXPECT_EQ(worker.busy_disks(), 0) << "worker " << w;
    EXPECT_EQ(worker.active_network(), 0) << "worker " << w;
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      EXPECT_NEAR(worker.running_bytes(static_cast<ResourceType>(r)), 0.0, 1e-3)
          << "worker " << w << " resource " << r;
    }
    EXPECT_NEAR(worker.free_memory(), worker.memory_capacity(), 1.0)
        << "worker " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CtrlChaosInvariants, ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace ursa
