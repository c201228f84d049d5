// Fault tolerance (section 4.3): heartbeat failure detection, stage-level
// lineage recovery, transient-failure retries with backoff, worker rejoin
// and full-restart fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/driver/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/obs/trace.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest() {
    config_.num_workers = 4;
    config_.worker.cores = 8;
    config_.worker.cpu_byte_rate = 100e6;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FaultToleranceTest, FailedWorkerDropsWorkAndRejectsSubmissions) {
  Worker& worker = cluster_->worker(0);
  int completed = 0;
  RunnableMonotask mt;
  mt.type = ResourceType::kCpu;
  mt.work = 100e6;  // 1 second.
  mt.input_bytes = 100e6;
  mt.on_complete = [&] { ++completed; };
  worker.Submit(std::move(mt));
  sim_.Schedule(0.5, [&] { worker.Fail(); });
  sim_.Run();
  EXPECT_EQ(completed, 0);  // In-flight completion suppressed.
  EXPECT_FALSE(worker.TryAllocateMemory(1.0));
  // Trackers stopped at the failure instant.
  EXPECT_DOUBLE_EQ(worker.cpu_busy_tracker().current(), 0.0);
}

TEST_F(FaultToleranceTest, JobsRestartAndFinishAfterWorkerFailure) {
  UrsaSchedulerConfig sc;
  // This test exercises the full-restart fallback path specifically.
  sc.fault.enable_lineage_recovery = false;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  // Kill a worker mid-flight.
  sim_.Schedule(10.0, [&] { EXPECT_GT(scheduler.FailWorker(1), 0); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_GT(scheduler.total_restarts(), 0);
  // No monotask ever completed on the dead worker after the failure, and
  // the remaining workers carried the load.
  EXPECT_FALSE(cluster_->worker(0).failed());
  for (const JobRecord& record : scheduler.job_records()) {
    EXPECT_GE(record.finish_time, 0.0) << record.name;
  }
  // Healthy workers end with clean memory accounting (1-byte tolerance for
  // floating-point residue across the restart's allocate/release cycles).
  for (int w = 0; w < cluster_->size(); ++w) {
    if (!cluster_->worker(w).failed()) {
      EXPECT_NEAR(cluster_->worker(w).free_memory(),
                  cluster_->worker(w).memory_capacity(), 1.0);
    }
  }
}

TEST_F(FaultToleranceTest, UnaffectedJobsAreNotRestarted) {
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 2;
  wc.submit_interval = 0.5;
  wc.seed = 33;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  // Fail a worker after everything finished: nothing to restart.
  sim_.Run();
  ASSERT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(scheduler.FailWorker(2), 0);
  EXPECT_EQ(scheduler.total_restarts(), 0);
}

TEST_F(FaultToleranceTest, DoubleFailureIsIdempotent) {
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  scheduler.FailWorker(3);
  EXPECT_EQ(scheduler.FailWorker(3), 0);
  EXPECT_TRUE(cluster_->worker(3).failed());
}

TEST_F(FaultToleranceTest, WorkerFailIsIdempotentAndRecoverable) {
  Worker& worker = cluster_->worker(0);
  ASSERT_TRUE(worker.TryAllocateMemory(1e9));
  worker.Fail();
  EXPECT_EQ(worker.failure_epoch(), 1);
  EXPECT_DOUBLE_EQ(worker.free_memory(), worker.memory_capacity());
  // A second Fail() must not start a new failure episode.
  worker.Fail();
  EXPECT_EQ(worker.failure_epoch(), 1);
  EXPECT_TRUE(worker.failed());
  worker.Recover();
  EXPECT_FALSE(worker.failed());
  EXPECT_TRUE(worker.TryAllocateMemory(1e9));
  worker.Fail();
  EXPECT_EQ(worker.failure_epoch(), 2);
}

TEST_F(FaultToleranceTest, SubmitOnFailedWorkerFiresFailureCallback) {
  Worker& worker = cluster_->worker(0);
  worker.Fail();
  bool failed_cb = false;
  int completed = 0;
  RunnableMonotask mt;
  mt.type = ResourceType::kCpu;
  mt.work = 100e6;
  mt.input_bytes = 100e6;
  mt.on_complete = [&] { ++completed; };
  mt.on_failure = [&] { failed_cb = true; };
  worker.Submit(std::move(mt));
  sim_.Run();
  EXPECT_TRUE(failed_cb);
  EXPECT_EQ(completed, 0);
}

TEST_F(FaultToleranceTest, HeartbeatTimeoutDetectsFailureWithoutExplicitReport) {
  UrsaSchedulerConfig sc;
  sc.fault.detector.heartbeat_interval = 0.25;
  sc.fault.detector.detect_timeout = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  // The worker silently dies; nobody calls FailWorker().
  sim_.Schedule(10.0, [&] { cluster_->worker(1).Fail(); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  ASSERT_NE(scheduler.failure_detector(), nullptr);
  EXPECT_TRUE(scheduler.failure_detector()->declared_dead(1));
  EXPECT_EQ(scheduler.fault_stats().detections, 1);
  // Declared within detect_timeout plus one heartbeat and one sweep period.
  EXPECT_LE(scheduler.fault_stats().avg_detection_latency(),
            sc.fault.detector.detect_timeout + 2.0 * sc.fault.detector.heartbeat_interval);
}

TEST_F(FaultToleranceTest, LineageRecoveryReExecutesFewerTasksThanFullRestart) {
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  sim_.Schedule(10.0, [&] { EXPECT_GT(scheduler.FailWorker(1), 0); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // Stage-level recovery: no job restarted from scratch...
  EXPECT_EQ(scheduler.total_restarts(), 0);
  const FaultCounters& stats = scheduler.fault_stats();
  // ...some tasks re-executed, but strictly fewer than a full restart of the
  // affected jobs would redo.
  EXPECT_GT(stats.tasks_reset, 0);
  EXPECT_LT(stats.tasks_reset, stats.full_restart_equivalent_tasks);
  EXPECT_GT(stats.recovery_latencies.size(), 0u);
  for (int w = 0; w < cluster_->size(); ++w) {
    if (!cluster_->worker(w).failed()) {
      EXPECT_NEAR(cluster_->worker(w).free_memory(),
                  cluster_->worker(w).memory_capacity(), 1.0);
    }
  }
}

TEST_F(FaultToleranceTest, TransientFailuresAreRetriedWithBackoff) {
  UrsaSchedulerConfig sc;
  sc.fault.max_monotask_attempts = 3;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 3;
  wc.submit_interval = 1.0;
  wc.seed = 47;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  sim_.Schedule(5.0, [&] { cluster_->worker(2).InjectTransientFailures(5); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  const FaultCounters& stats = scheduler.fault_stats();
  EXPECT_GE(stats.transient_failures, 5);
  EXPECT_GE(stats.retries, 5);
  EXPECT_EQ(scheduler.total_restarts(), 0);
}

TEST_F(FaultToleranceTest, ExhaustedRetriesEscalateToReplacement) {
  UrsaSchedulerConfig sc;
  // A single attempt: the first transient failure already escalates.
  sc.fault.max_monotask_attempts = 1;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 3;
  wc.submit_interval = 1.0;
  wc.seed = 47;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  sim_.Schedule(5.0, [&] { cluster_->worker(2).InjectTransientFailures(3); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  const FaultCounters& stats = scheduler.fault_stats();
  EXPECT_GE(stats.escalations, 3);
  EXPECT_EQ(stats.retries, 0);
}

TEST_F(FaultToleranceTest, RecoveredWorkerRejoinsAndReceivesPlacements) {
  UrsaSchedulerConfig sc;
  sc.fault.detector.heartbeat_interval = 0.25;
  sc.fault.detector.detect_timeout = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 8;
  wc.submit_interval = 2.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  int64_t completed_at_rejoin = -1;
  sim_.Schedule(8.0, [&] { cluster_->worker(1).Fail(); });
  sim_.Schedule(14.0, [&] {
    cluster_->worker(1).Recover();
    completed_at_rejoin = cluster_->worker(1).completed(ResourceType::kCpu);
  });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  const FaultCounters& stats = scheduler.fault_stats();
  EXPECT_EQ(stats.detections, 1);
  EXPECT_EQ(stats.rejoins, 1);
  ASSERT_NE(scheduler.failure_detector(), nullptr);
  EXPECT_FALSE(scheduler.failure_detector()->declared_dead(1));
  // The rejoined worker went back to useful work.
  EXPECT_GT(cluster_->worker(1).completed(ResourceType::kCpu), completed_at_rejoin);
}

// Regression: a worker that fails and recovers before the completion events
// of its in-flight monotasks fire must discard those events. Before the
// failure-epoch guard, the stale events decremented occupancy counters that
// Fail() had already zeroed (driving busy_cores_/cpu_busy_now_/running_bytes_
// negative) and delivered completion callbacks for work that was lost.
TEST_F(FaultToleranceTest, StaleCompletionsAfterRejoinAreDiscarded) {
  Worker& worker = cluster_->worker(0);
  Tracer tracer;
  worker.set_tracer(&tracer);
  int stale_completed = 0;
  int stale_failed = 0;
  int fresh_completed = 0;

  // One in-flight monotask per resource, each longer than 0.5 s.
  RunnableMonotask cpu;
  cpu.type = ResourceType::kCpu;
  cpu.work = 100e6;  // 1 s at 100 MB/s.
  cpu.input_bytes = 100e6;
  cpu.on_complete = [&] { ++stale_completed; };
  cpu.on_failure = [&] { ++stale_failed; };
  worker.Submit(std::move(cpu));

  RunnableMonotask disk;
  disk.type = ResourceType::kDisk;
  disk.work = 150e6;  // 1 s at the default 150 MB/s disk rate.
  disk.input_bytes = 150e6;
  disk.on_complete = [&] { ++stale_completed; };
  disk.on_failure = [&] { ++stale_failed; };
  worker.Submit(std::move(disk));

  RunnableMonotask net;
  net.type = ResourceType::kNetwork;
  net.pulls = {{/*src=*/1, /*bytes=*/1.25e9}};  // ~1 s at the default downlink.
  net.input_bytes = 1.25e9;
  net.on_complete = [&] { ++stale_completed; };
  net.on_failure = [&] { ++stale_failed; };
  worker.Submit(std::move(net));

  // Fail and rejoin before any of the three events fire.
  sim_.Schedule(0.5, [&] {
    worker.Fail();
    worker.Recover();
    ASSERT_FALSE(worker.failed());
    // Fresh work on the rejoined worker must execute normally.
    RunnableMonotask fresh;
    fresh.type = ResourceType::kCpu;
    fresh.work = 100e6;
    fresh.input_bytes = 100e6;
    fresh.on_complete = [&] { ++fresh_completed; };
    worker.Submit(std::move(fresh));
  });
  sim_.Run();

  // No stale callback delivery: the lost monotasks are the scheduler's
  // problem (lineage recovery), not the rejoined worker's.
  EXPECT_EQ(stale_completed, 0);
  EXPECT_EQ(stale_failed, 0);
  EXPECT_EQ(fresh_completed, 1);
  EXPECT_EQ(worker.completed(ResourceType::kCpu), 1);
  EXPECT_EQ(worker.completed(ResourceType::kDisk), 0);
  EXPECT_EQ(worker.completed(ResourceType::kNetwork), 0);

  // Occupancy never went negative and is back to idle.
  EXPECT_EQ(worker.busy_cores(), 0);
  EXPECT_EQ(worker.busy_disks(), 0);
  EXPECT_EQ(worker.active_network(), 0);
  EXPECT_DOUBLE_EQ(worker.cpu_busy_now(), 0.0);
  EXPECT_DOUBLE_EQ(worker.disk_busy_now(), 0.0);
  for (ResourceType r :
       {ResourceType::kCpu, ResourceType::kNetwork, ResourceType::kDisk}) {
    EXPECT_GE(worker.running_bytes(r), 0.0) << ResourceTypeName(r);
    EXPECT_DOUBLE_EQ(worker.running_bytes(r), 0.0) << ResourceTypeName(r);
  }
  EXPECT_TRUE(worker.HasIdleCpu());
  EXPECT_EQ(worker.idle_cores(), config_.worker.cores);

  // Each lost monotask closes exactly one `lost` span, at the failure
  // instant, including the network one whose orphaned flow runs on to ~1 s;
  // none of the three closes anything later.
  const std::vector<TraceEvent> events = tracer.Snapshot();
  std::vector<uint64_t> lost_seqs;
  int lost_per_resource[kNumMonotaskResources] = {0, 0, 0};
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kLost) {
      EXPECT_DOUBLE_EQ(e.t, 0.5);
      lost_seqs.push_back(e.seq);
      ++lost_per_resource[static_cast<size_t>(e.resource)];
    }
  }
  EXPECT_EQ(lost_seqs.size(), 3u);
  for (int count : lost_per_resource) {
    EXPECT_EQ(count, 1);
  }
  for (const TraceEvent& e : events) {
    if (std::find(lost_seqs.begin(), lost_seqs.end(), e.seq) != lost_seqs.end()) {
      EXPECT_LE(e.t, 0.5) << "seq " << e.seq;
    }
  }
}

// Queued (not yet running) monotasks drained by Fail() report failure
// through on_failure — asynchronously, never from inside Fail() itself.
TEST_F(FaultToleranceTest, DrainedQueuedMonotasksFailAsynchronously) {
  Worker& worker = cluster_->worker(0);
  int completions = 0;
  int failures = 0;
  // 8 cores: monotasks 9 and 10 wait in the CPU queue.
  for (int i = 0; i < 10; ++i) {
    RunnableMonotask mt;
    mt.type = ResourceType::kCpu;
    mt.work = 100e6;  // 1 s.
    mt.input_bytes = 100e6;
    mt.on_complete = [&] { ++completions; };
    mt.on_failure = [&] { ++failures; };
    worker.Submit(std::move(mt));
  }
  sim_.Schedule(0.5, [&] {
    worker.Fail();
    // Deferred via the simulator: nothing fired synchronously.
    EXPECT_EQ(failures, 0);
  });
  sim_.Run();
  // The 8 in-flight monotasks are suppressed (lineage recovery's job); the 2
  // drained queued ones fail explicitly so no job manager hangs on them.
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(completions, 0);
}

// End-to-end version of the drain guarantee with lineage recovery disabled:
// the failure is only noticed via heartbeat timeout, so without the drained
// on_failure notifications the affected job managers would wait forever on
// monotasks that no longer exist.
TEST_F(FaultToleranceTest, DrainedMonotasksUnblockJobsWithoutLineageRecovery) {
  UrsaSchedulerConfig sc;
  sc.fault.enable_lineage_recovery = false;
  sc.fault.detector.heartbeat_interval = 0.25;
  sc.fault.detector.detect_timeout = 1.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  // Silent death: nobody calls FailWorker(), detection is heartbeat-only.
  sim_.Schedule(10.0, [&] { cluster_->worker(1).Fail(); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(scheduler.fault_stats().detections, 1);
  EXPECT_GT(scheduler.fault_stats().worker_loss_failures, 0);
}

// A full restart frees the aborted job manager at once: no closure held by a
// worker or by the control plane points into it. Its monotasks that keep
// running on healthy workers report by job identity, and those late reports
// are fenced against the new incarnation. Under ASan a report that reached
// the freed manager would fail this test.
TEST_F(FaultToleranceTest, RestartFreesTheOldJobManagerAndFencesItsLateReports) {
  UrsaSchedulerConfig sc;
  sc.fault.enable_lineage_recovery = false;  // Force the full-restart path.
  sc.ctrl.enabled = true;                    // Reports travel with latency.
  sc.ctrl.loss_prob = 0.2;                   // And some wait on retransmits.
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  std::vector<JobId> restarted;
  int fenced_before = -1;
  sim_.Schedule(10.0, [&] {
    EXPECT_GT(scheduler.FailWorker(1), 0);
    for (size_t i = 0; i < workload.jobs.size(); ++i) {
      const JobManager* jm = scheduler.job_manager(static_cast<JobId>(i));
      if (jm != nullptr && jm->incarnation() > 0) {
        restarted.push_back(static_cast<JobId>(i));
      }
    }
    fenced_before = scheduler.fault_stats().msgs_fenced;
  });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  ASSERT_FALSE(restarted.empty());
  for (JobId j : restarted) {
    // The restart's manager ran the job to the end; the old one is gone.
    EXPECT_EQ(scheduler.job_manager(j)->incarnation(), 1);
    EXPECT_TRUE(scheduler.job_manager(j)->finished());
  }
  // Reports of the freed manager's executions landed after the restart.
  EXPECT_GT(scheduler.fault_stats().msgs_fenced, fenced_before);
}

// With the message layer off, reports still take the control plane's
// pass-through route and are fenced by incarnation: the reports of an
// aborted execution that still finish on healthy workers are counted as
// fenced, not dropped silently.
TEST_F(FaultToleranceTest, PassThroughRouteFencesStaleReports) {
  UrsaSchedulerConfig sc;
  sc.fault.enable_lineage_recovery = false;  // Crashes force full restarts.
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    sim_.ScheduleAt(workload.jobs[i].submit_time, [&, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
    });
  }
  sim_.Schedule(10.0, [&] { EXPECT_GT(scheduler.FailWorker(1), 0); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_GT(scheduler.total_restarts(), 0);
  const FaultCounters& c = scheduler.fault_stats();
  EXPECT_EQ(c.msgs_sent, 0);  // Pass-through: no message was ever sent.
  EXPECT_GT(c.msgs_fenced, 0);
}

// Regression: a second failure episode must re-produce outputs that the
// first episode dropped. The first crash deletes the outputs of completed
// tasks that no consumer needed at the time, and those tasks stay completed.
// When the second crash resets one of their consumers, lineage recovery must
// also reset them (their outputs are missing from the metadata store), or
// the consumer becomes ready and reads missing partition metadata. This
// plan aborted on exactly that before the fix.
TEST_F(FaultToleranceTest, SecondCrashReproducesOutputsDroppedByTheFirst) {
  FaultPlanConfig pc;
  pc.seed = 3;
  pc.num_workers = 100;
  pc.crashes = 2;
  TpchWorkloadConfig wc;
  wc.num_jobs = 30;
  const Workload workload = MakeTpchWorkload(wc);
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 100;
  config.fault_plan = MakeRandomFaultPlan(pc);
  const ExperimentResult result = RunExperiment(workload, config, "two-crashes");
  EXPECT_EQ(result.faults.detections, 2);
  ASSERT_EQ(result.records.size(), 30u);
  for (const JobRecord& record : result.records) {
    EXPECT_TRUE(record.completed()) << "job " << record.id;
  }
}

TEST_F(FaultToleranceTest, ChaosRunsAreDeterministicUnderFixedSeed) {
  FaultPlanConfig pc;
  pc.seed = 7;
  pc.num_workers = 4;
  pc.horizon_start = 5.0;
  pc.horizon_end = 40.0;
  pc.crashes = 1;
  pc.crash_recovers = 1;
  pc.transients = 3;
  const FaultPlan plan = MakeRandomFaultPlan(pc);
  ASSERT_EQ(plan.events.size(), 5u);

  TpchWorkloadConfig wc;
  wc.num_jobs = 4;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  const Workload workload = MakeTpchWorkload(wc);

  auto run_once = [&] {
    ExperimentConfig config = UrsaEjfConfig();
    config.cluster.num_workers = 4;
    config.cluster.worker.cores = 8;
    config.cluster.worker.cpu_byte_rate = 100e6;
    config.fault_plan = plan;
    return RunExperiment(workload, config, "chaos");
  };
  const ExperimentResult a = run_once();
  const ExperimentResult b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  EXPECT_DOUBLE_EQ(a.avg_jct(), b.avg_jct());
  EXPECT_EQ(a.faults.detections, b.faults.detections);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.tasks_reset, b.faults.tasks_reset);
  EXPECT_EQ(a.faults.escalations, b.faults.escalations);
  EXPECT_TRUE(a.faults.any_faults());
}

}  // namespace
}  // namespace ursa
