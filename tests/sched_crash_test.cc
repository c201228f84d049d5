// Scheduler crash-recovery (DESIGN.md section 14): journaled restore from
// checkpoint + decision journal, the journal-less full-restart fallback,
// orphan re-attachment, post-recovery worker reconciliation, parked
// submissions, chaos determinism and fault-plan validation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/driver/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

Workload SmallTpch(int jobs, double interval = 3.0, uint64_t seed = 11) {
  TpchWorkloadConfig config;
  config.num_jobs = jobs;
  config.submit_interval = interval;
  config.seed = seed;
  return MakeTpchWorkload(config);
}

class SchedCrashTest : public ::testing::Test {
 protected:
  SchedCrashTest() {
    cluster_config_.num_workers = 4;
    cluster_config_.worker.cores = 8;
    cluster_config_.worker.cpu_byte_rate = 100e6;
    cluster_ = std::make_unique<Cluster>(&sim_, cluster_config_);
  }

  void SubmitAll(UrsaScheduler* scheduler, const Workload& workload) {
    for (size_t i = 0; i < workload.jobs.size(); ++i) {
      sim_.ScheduleAt(workload.jobs[i].submit_time, [this, scheduler, &workload, i] {
        scheduler->SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
      });
    }
  }

  // Steps the simulation through the next scheduler crash and its recovery,
  // then checks every live job manager's placed-task index against a
  // recount of its task states. Returns the number of placed tasks.
  int StepThroughRecoveryAndCheckPlacedIndex(const UrsaScheduler& scheduler) {
    while (!scheduler.scheduler_down()) {
      if (!sim_.Step()) {
        ADD_FAILURE() << "the simulation ended before the scheduler crashed";
        return 0;
      }
    }
    while (scheduler.scheduler_down()) {
      if (!sim_.Step()) {
        ADD_FAILURE() << "the simulation ended before the scheduler recovered";
        return 0;
      }
    }
    int total = 0;
    for (JobId id = 0; id < scheduler.total_jobs(); ++id) {
      const JobManager* jm = scheduler.job_manager(id);
      if (jm == nullptr) {
        continue;
      }
      int placed = 0;
      for (TaskId t = 0; t < jm->total_tasks(); ++t) {
        placed += jm->task_state(t) == TaskState::kPlaced ? 1 : 0;
      }
      EXPECT_EQ(jm->CountPlacedTasks(), placed) << "job " << id;
      total += placed;
    }
    return total;
  }

  // Runs `workload` to completion under `sc` on a fresh simulator and cluster
  // and returns the job records.
  std::vector<JobRecord> RunClean(const UrsaSchedulerConfig& sc, const Workload& workload) {
    Simulator sim;
    Cluster cluster(&sim, cluster_config_);
    UrsaScheduler scheduler(&sim, &cluster, sc);
    for (size_t i = 0; i < workload.jobs.size(); ++i) {
      sim.ScheduleAt(workload.jobs[i].submit_time, [&scheduler, &workload, i] {
        scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
      });
    }
    sim.Run();
    EXPECT_TRUE(scheduler.AllJobsFinished());
    return scheduler.job_records();
  }

  Simulator sim_;
  ClusterConfig cluster_config_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(SchedCrashTest, JournaledCrashRecoversWithoutRestartingJobs) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(6);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(10.0, [&] { scheduler.InjectSchedulerCrash(3.0); });
  sim_.Schedule(11.0, [&] { EXPECT_TRUE(scheduler.scheduler_down()); });
  // The restore writes task states directly, bypassing PlaceTask.
  EXPECT_GT(StepThroughRecoveryAndCheckPlacedIndex(scheduler), 0);
  sim_.Run();
  EXPECT_FALSE(scheduler.scheduler_down());
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // Journaled recovery restores progress; no job restarted from scratch.
  EXPECT_EQ(scheduler.total_restarts(), 0);
  const FaultCounters& c = scheduler.fault_stats();
  EXPECT_EQ(c.scheduler_crashes, 1);
  EXPECT_EQ(c.scheduler_recoveries, 1);
  EXPECT_GE(c.avg_scheduler_recovery_latency(), 3.0);
  EXPECT_GT(c.checkpoints, 0);
  EXPECT_GT(c.journal_records, 0);
  // Healthy workers end with clean memory accounting: restore re-attached
  // charges instead of double-charging them.
  for (int w = 0; w < cluster_->size(); ++w) {
    EXPECT_NEAR(cluster_->worker(w).free_memory(),
                cluster_->worker(w).memory_capacity(), 1.0);
  }
}

// Planned work is executed: a journaled crash that orphans in-flight
// monotasks must not change any job's executed CPU work. An orphan that
// completes after the restore commits its outputs from the input bytes the
// restore re-derived; losing them would shrink every downstream gather.
TEST_F(SchedCrashTest, JournaledCrashExecutesThePlannedWork) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  const Workload workload = SmallTpch(6);
  const std::vector<JobRecord> clean = RunClean(sc, workload);
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(10.0, [&] { scheduler.InjectSchedulerCrash(3.0); });
  // Restored placements are the in-flight monotasks the crash orphaned.
  EXPECT_GT(StepThroughRecoveryAndCheckPlacedIndex(scheduler), 0);
  sim_.Run();
  ASSERT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(scheduler.total_restarts(), 0);
  const std::vector<JobRecord>& crashed = scheduler.job_records();
  ASSERT_EQ(crashed.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_GT(clean[i].cpu_seconds, 0.0);
    EXPECT_NEAR(crashed[i].cpu_seconds, clean[i].cpu_seconds, 1e-9 * clean[i].cpu_seconds)
        << clean[i].name;
  }
}

TEST_F(SchedCrashTest, JournallessCrashFallsBackToFullRestarts) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;  // checkpoint_interval stays 0: no journal.
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(6);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(10.0, [&] { scheduler.InjectSchedulerCrash(2.0); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // Progress was unrecoverable: every live job restarted from its input.
  EXPECT_GT(scheduler.total_restarts(), 0);
  const FaultCounters& c = scheduler.fault_stats();
  EXPECT_EQ(c.scheduler_crashes, 1);
  EXPECT_EQ(c.scheduler_recoveries, 1);
  EXPECT_EQ(c.checkpoints, 0);
  // Orphan reports from the dead incarnation were fenced, not re-applied.
  EXPECT_GT(c.msgs_fenced, 0);
}

TEST_F(SchedCrashTest, SubmissionDuringDowntimeParksAndCompletes) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(4, /*interval=*/2.0);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(8.0, [&] { scheduler.InjectSchedulerCrash(4.0); });
  // This job arrives while the scheduler is down and must be parked.
  const Workload late = SmallTpch(5, /*interval=*/2.0);
  sim_.ScheduleAt(10.0, [&] {
    scheduler.SubmitJob(Job::Create(4, late.jobs[4].spec));
    EXPECT_TRUE(scheduler.scheduler_down());
  });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(static_cast<size_t>(scheduler.job_records().size()), 5u);
  for (const JobRecord& record : scheduler.job_records()) {
    EXPECT_GE(record.finish_time, 0.0) << record.name;
  }
}

TEST_F(SchedCrashTest, CrashAfterWorkerFailureStillDrainsEverything) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(6);
  SubmitAll(&scheduler, workload);
  // A worker dies, the scheduler handles it, then the scheduler itself
  // crashes. Recovery must re-handle the dead worker from the restored
  // images (handled-epoch state died with the scheduler).
  sim_.Schedule(8.0, [&] { scheduler.FailWorker(1); });
  sim_.Schedule(10.0, [&] { scheduler.InjectSchedulerCrash(3.0); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_TRUE(cluster_->worker(1).failed());
  for (int w = 0; w < cluster_->size(); ++w) {
    if (!cluster_->worker(w).failed()) {
      EXPECT_NEAR(cluster_->worker(w).free_memory(),
                  cluster_->worker(w).memory_capacity(), 1.0);
    }
  }
}

TEST_F(SchedCrashTest, WorkerFailureEntirelyWithinDowntimeIsReconciled) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(6);
  SubmitAll(&scheduler, workload);
  // The worker fails AND rejoins while the scheduler is down (the fault
  // injector drives workers directly, so this interleaving is reachable from
  // any chaos plan): no heartbeat-detector episode ever fires for it. The
  // recovered scheduler must notice the advanced failure epoch, drop the
  // worker's lost metadata/queue state, and re-send dispatches the dead
  // worker process had acked — otherwise the affected jobs hang forever.
  sim_.Schedule(8.0, [&] { scheduler.InjectSchedulerCrash(6.0); });
  sim_.Schedule(9.0, [&] {
    EXPECT_TRUE(scheduler.scheduler_down());
    cluster_->worker(1).Fail();
  });
  sim_.Schedule(11.0, [&] { cluster_->worker(1).Recover(); });
  sim_.Run();
  EXPECT_FALSE(scheduler.scheduler_down());
  EXPECT_FALSE(cluster_->worker(1).failed());
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // No job restarted from scratch: journaled recovery plus reconciliation
  // repaired the lost placements surgically.
  EXPECT_EQ(scheduler.total_restarts(), 0);
  for (int w = 0; w < cluster_->size(); ++w) {
    EXPECT_NEAR(cluster_->worker(w).free_memory(),
                cluster_->worker(w).memory_capacity(), 1.0)
        << "worker " << w;
  }
}

TEST_F(SchedCrashTest, ParkedSubmissionChargesDowntimeToJct) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(2, /*interval=*/1.0);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(6.0, [&] { scheduler.InjectSchedulerCrash(5.0); });
  const Workload late = SmallTpch(3, /*interval=*/1.0);
  sim_.ScheduleAt(7.5, [&] {
    EXPECT_TRUE(scheduler.scheduler_down());
    scheduler.SubmitJob(Job::Create(2, late.jobs[2].spec));
  });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  ASSERT_EQ(scheduler.job_records().size(), 3u);
  // The parked job keeps its client-side arrival time: the downtime it spent
  // queued counts toward its JCT instead of flattering the crash runs.
  const JobRecord& parked = scheduler.job_records()[2];
  EXPECT_DOUBLE_EQ(parked.submit_time, 7.5);
  EXPECT_GT(parked.finish_time, 11.0);  // Could not start before recovery.
}

TEST_F(SchedCrashTest, RepeatedCrashesConverge) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 0.5;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(5);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(6.0, [&] { scheduler.InjectSchedulerCrash(2.0); });
  sim_.Schedule(14.0, [&] { scheduler.InjectSchedulerCrash(1.0); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  const FaultCounters& c = scheduler.fault_stats();
  EXPECT_EQ(c.scheduler_crashes, 2);
  EXPECT_EQ(c.scheduler_recoveries, 2);
}

TEST_F(SchedCrashTest, CrashWhileDownIsANoOp) {
  UrsaSchedulerConfig sc;
  sc.ctrl.enabled = true;
  sc.ctrl.checkpoint_interval = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const Workload workload = SmallTpch(3);
  SubmitAll(&scheduler, workload);
  sim_.Schedule(5.0, [&] {
    scheduler.InjectSchedulerCrash(5.0);
    scheduler.InjectSchedulerCrash(5.0);  // Absorbed by the pending recovery.
  });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(scheduler.fault_stats().scheduler_crashes, 1);
}

// Same seed, same chaos plan, byte-identical outcome: the whole fault model
// draws from seeded streams only.
TEST(SchedCrashDeterminism, ChaosRunsAreReproducible) {
  const Workload workload = SmallTpch(8, /*interval=*/2.0, /*seed=*/13);
  ExperimentConfig config = UrsaSrjfConfig();
  config.cluster.num_workers = 4;
  config.ursa.ctrl.enabled = true;
  config.ursa.ctrl.loss_prob = 0.05;
  config.ursa.ctrl.dup_prob = 0.05;
  config.ursa.ctrl.delay_prob = 0.1;
  config.ursa.ctrl.checkpoint_interval = 2.0;
  FaultPlanConfig pc;
  pc.seed = 5;
  pc.num_workers = 4;
  pc.horizon_start = 5.0;
  pc.horizon_end = 30.0;
  pc.sched_crash_recovers = 1;
  pc.crash_recovers = 1;
  config.fault_plan = MakeRandomFaultPlan(pc);
  const ExperimentResult a = RunExperiment(workload, config, "chaos-a");
  const ExperimentResult b = RunExperiment(workload, config, "chaos-b");
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].finish_time, b.records[i].finish_time)
        << a.records[i].name;
    EXPECT_DOUBLE_EQ(a.records[i].cpu_seconds, b.records[i].cpu_seconds);
  }
  const FaultCounters ca = a.faults;
  const FaultCounters cb = b.faults;
  EXPECT_EQ(ca.msgs_sent, cb.msgs_sent);
  EXPECT_EQ(ca.msgs_lost, cb.msgs_lost);
  EXPECT_EQ(ca.msgs_duplicated, cb.msgs_duplicated);
  EXPECT_EQ(ca.msgs_fenced, cb.msgs_fenced);
  EXPECT_EQ(ca.retransmits, cb.retransmits);
  EXPECT_EQ(ca.scheduler_crashes, 1);
}

// Satellite: MakeRandomFaultPlan rejects malformed configs loudly.
TEST(FaultPlanValidationDeathTest, RejectsEmptyOrInvertedHorizon) {
  FaultPlanConfig pc;
  pc.horizon_start = 50.0;
  pc.horizon_end = 50.0;
  EXPECT_DEATH(MakeRandomFaultPlan(pc), "horizon");
  pc.horizon_end = 10.0;
  EXPECT_DEATH(MakeRandomFaultPlan(pc), "horizon");
}

TEST(FaultPlanValidationDeathTest, RejectsNegativeCounts) {
  FaultPlanConfig pc;
  pc.crashes = -1;
  EXPECT_DEATH(MakeRandomFaultPlan(pc), "crashes");
  pc.crashes = 0;
  pc.sched_crash_recovers = -2;
  EXPECT_DEATH(MakeRandomFaultPlan(pc), "sched_crash_recovers");
}

TEST(FaultPlanValidationDeathTest, RejectsInvertedDowntimes) {
  FaultPlanConfig pc;
  pc.min_sched_downtime = 10.0;
  pc.max_sched_downtime = 5.0;
  EXPECT_DEATH(MakeRandomFaultPlan(pc), "sched_downtime");
  pc.min_sched_downtime = -1.0;
  EXPECT_DEATH(MakeRandomFaultPlan(pc), "min_sched_downtime");
}

}  // namespace
}  // namespace ursa
