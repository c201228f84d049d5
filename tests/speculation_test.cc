// Straggler mitigation (DESIGN.md section 9): robust detection statistics,
// the wasted-work budget, cooperative cancellation, and the deterministic
// first-finisher-wins races between a primary task and its speculative copy
// - including every interleaving with worker failures (primary's worker
// dies, copy's worker dies after winning, both die and lineage recovery
// re-runs the task exactly once).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/exec/job_manager.h"
#include "src/obs/trace.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/spec/robust_stats.h"
#include "src/spec/speculation.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

// --- Detection statistics. ---

TEST(RobustStats, MedianAndMadIgnoreOutliers) {
  RobustSample s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  // Deviations {2, 1, 0, 1, 97} -> sorted {0, 1, 1, 2, 97}, median 1.
  EXPECT_DOUBLE_EQ(s.Mad(), 1.0);
  // The outlier barely moves either statistic: with 1000 instead of 100 the
  // answers are identical.
  RobustSample t;
  for (double v : {1.0, 2.0, 3.0, 4.0, 1000.0}) {
    t.Add(v);
  }
  EXPECT_DOUBLE_EQ(t.Median(), s.Median());
  EXPECT_DOUBLE_EQ(t.Mad(), s.Mad());
}

TEST(RobustStats, MadIsZeroBelowTwoSamples) {
  RobustSample s;
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
  EXPECT_DOUBLE_EQ(s.Mad(), 0.0);
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
  EXPECT_DOUBLE_EQ(s.Mad(), 0.0);
}

TEST(RobustStats, MadTracksEveryAdd) {
  // The MAD is cached between Adds: every query must be bit-equal to the MAD
  // of a freshly built sample over the same values. A small value grid makes
  // duplicates common; sizes run through both parities.
  std::mt19937_64 rng(20201);
  std::uniform_int_distribution<int> grid(0, 12);
  std::uniform_int_distribution<int> coin(0, 2);
  for (int trial = 0; trial < 50; ++trial) {
    RobustSample sample;
    std::vector<double> values;
    for (int step = 0; step < 40; ++step) {
      const double v = coin(rng) == 0 ? 0.25 * grid(rng) : 0.1 * grid(rng) + 1e-3 * step;
      sample.Add(v);
      values.push_back(v);
      for (int q = coin(rng); q > 0; --q) {  // Zero, one or two queries.
        RobustSample fresh;
        for (double x : values) {
          fresh.Add(x);
        }
        ASSERT_EQ(sample.Mad(), fresh.Mad()) << "trial " << trial << " size " << values.size();
        ASSERT_EQ(sample.Median(), fresh.Median());
      }
    }
  }
}

TEST(Detection, RequiresMinimumStageSamples) {
  SpeculationConfig config;
  config.min_stage_samples = 3;
  config.min_runtime = 0.0;
  RobustSample durations;
  durations.Add(1.0);
  durations.Add(1.0);
  // Two completions: never a straggler, however slow.
  EXPECT_FALSE(IsStraggler(config, durations, 1000.0));
  durations.Add(1.0);
  EXPECT_TRUE(IsStraggler(config, durations, 1000.0));
}

TEST(Detection, ThresholdIsMedianPlusMadScaled) {
  SpeculationConfig config;
  config.min_stage_samples = 3;
  config.min_runtime = 0.0;
  config.slowdown_threshold = 1.75;
  config.mad_multiplier = 3.0;
  RobustSample durations;
  for (double v : {2.0, 2.0, 2.0, 4.0}) {
    durations.Add(v);
  }
  // Median 2, MAD 0 -> limit 3.5.
  EXPECT_FALSE(IsStraggler(config, durations, 3.5));
  EXPECT_TRUE(IsStraggler(config, durations, 3.51));
}

TEST(Detection, MinRuntimeFloorsTheThreshold) {
  SpeculationConfig config;
  config.min_stage_samples = 1;
  config.min_runtime = 5.0;
  RobustSample durations;
  durations.Add(0.01);  // Tiny tasks: threshold alone would be ~0.02 s.
  EXPECT_FALSE(IsStraggler(config, durations, 4.9));
  EXPECT_TRUE(IsStraggler(config, durations, 5.1));
}

TEST(Detection, EttfRanksNoProgressHighest) {
  // LATE ranking: same elapsed time, less progress -> longer to finish.
  EXPECT_DOUBLE_EQ(EstimatedTimeToFinish(10.0, 0.5), 10.0);
  EXPECT_GT(EstimatedTimeToFinish(10.0, 0.1), EstimatedTimeToFinish(10.0, 0.5));
  EXPECT_GT(EstimatedTimeToFinish(10.0, 0.0), EstimatedTimeToFinish(10.0, 0.01));
}

// --- Wasted-work budget. ---

TEST(Budget, CapsLiveCopiesAtFractionOfRunningTasks) {
  SpeculationConfig config;
  config.enabled = true;
  config.budget_fraction = 0.1;
  FaultCounters stats;
  SpeculationManager manager(config, &stats);
  // 25 running primaries -> cap floor(2.5) = 2 live copies.
  EXPECT_TRUE(manager.CanLaunch(25));
  manager.OnLaunched();
  EXPECT_TRUE(manager.CanLaunch(25));
  manager.OnLaunched();
  EXPECT_FALSE(manager.CanLaunch(25));
  // A decided race frees budget.
  manager.OnWon();
  EXPECT_TRUE(manager.CanLaunch(25));
  manager.OnLost();
  EXPECT_EQ(manager.active(), 0);
  EXPECT_EQ(stats.speculations_launched, 2);
  EXPECT_EQ(stats.speculations_won, 1);
  EXPECT_EQ(stats.speculations_lost, 1);
}

TEST(Budget, AlwaysAdmitsOneCopyWhenAnythingRuns) {
  SpeculationConfig config;
  config.enabled = true;
  config.budget_fraction = 0.1;
  FaultCounters stats;
  SpeculationManager manager(config, &stats);
  // floor(0.1 * 3) = 0, but the budget never starves mitigation entirely.
  EXPECT_TRUE(manager.CanLaunch(3));
  manager.OnLaunched();
  EXPECT_FALSE(manager.CanLaunch(3));
  EXPECT_FALSE(manager.CanLaunch(0));
  SpeculationConfig off = config;
  off.enabled = false;
  SpeculationManager disabled(off, &stats);
  EXPECT_FALSE(disabled.CanLaunch(100));
}

// --- Cooperative cancellation at the queue / worker level. ---

TEST(Cancellation, QueueDropsCancelledEntriesWithoutCallbacks) {
  MonotaskQueue queue;
  auto token = std::make_shared<CancelToken>();
  bool cancelled_cb = false;
  bool kept_cb = false;
  RunnableMonotask doomed;
  doomed.job = 1;
  doomed.input_bytes = 30.0;
  doomed.cancel = token;
  doomed.on_complete = [&] { cancelled_cb = true; };
  RunnableMonotask kept;
  kept.job = 1;
  kept.input_bytes = 12.0;
  kept.on_complete = [&] { kept_cb = true; };
  queue.Push(std::move(doomed));
  queue.Push(std::move(kept));
  token->cancelled = true;
  EXPECT_EQ(queue.RemoveCancelled(), 1u);
  EXPECT_DOUBLE_EQ(queue.queued_bytes(), 12.0);
  ASSERT_EQ(queue.Size(), 1u);
  RunnableMonotask survivor = queue.Pop();
  survivor.on_complete();
  EXPECT_TRUE(kept_cb);
  EXPECT_FALSE(cancelled_cb);  // The cancelled callback was dropped, not fired.
}

class CancellationWorkerTest : public ::testing::Test {
 protected:
  CancellationWorkerTest() {
    ClusterConfig config;
    config.num_workers = 1;
    config.worker.cores = 2;
    config.worker.cpu_byte_rate = 100.0;
    cluster_ = std::make_unique<Cluster>(&sim_, config);
  }

  RunnableMonotask Cpu(double bytes, std::shared_ptr<CancelToken> token,
                       std::function<void()> done = nullptr) {
    RunnableMonotask mt;
    mt.job = 1;
    mt.type = ResourceType::kCpu;
    mt.work = bytes;
    mt.input_bytes = bytes;
    mt.cancel = std::move(token);
    mt.on_complete = std::move(done);
    return mt;
  }

  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(CancellationWorkerTest, SweepDisarmsInFlightAndReportsElapsedAsWaste) {
  Worker& worker = cluster_->worker(0);
  double wasted_bytes = 0.0;
  double wasted_seconds = 0.0;
  worker.set_waste_sink([&](ResourceType r, double bytes, double seconds) {
    EXPECT_EQ(r, ResourceType::kCpu);
    wasted_bytes += bytes;
    wasted_seconds += seconds;
  });
  auto token = std::make_shared<CancelToken>();
  bool completed = false;
  worker.Submit(Cpu(100.0, token, [&] { completed = true; }));  // 1 s.
  double follower_done = -1.0;
  sim_.Schedule(0.5, [&] {
    token->cancelled = true;
    worker.SweepCancelled();
    // The freed core picks up new work immediately.
    worker.Submit(Cpu(50.0, nullptr, [&] { follower_done = sim_.Now(); }));
  });
  sim_.Run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(wasted_bytes, 50.0, 1e-9);    // Half the input was processed.
  EXPECT_NEAR(wasted_seconds, 0.5, 1e-9);   // For half a second.
  EXPECT_NEAR(follower_done, 1.0, 1e-9);    // 0.5 s start + 0.5 s of work.
  EXPECT_EQ(worker.busy_cores(), 0);
}

TEST_F(CancellationWorkerTest, QueuedCancelledMonotasksAreNeverCharged) {
  Worker& worker = cluster_->worker(0);
  double wasted_seconds = 0.0;
  worker.set_waste_sink(
      [&](ResourceType, double, double seconds) { wasted_seconds += seconds; });
  // Fill both cores, then queue a cancellable monotask behind them.
  for (int i = 0; i < 2; ++i) {
    worker.Submit(Cpu(100.0, nullptr));
  }
  auto token = std::make_shared<CancelToken>();
  bool completed = false;
  worker.Submit(Cpu(100.0, token, [&] { completed = true; }));
  sim_.Schedule(0.5, [&] {
    token->cancelled = true;
    worker.SweepCancelled();
  });
  sim_.Run();
  EXPECT_FALSE(completed);
  EXPECT_DOUBLE_EQ(wasted_seconds, 0.0);  // Dequeued before any resource use.
  EXPECT_NEAR(sim_.Now(), 1.0, 1e-9);     // Only the two blockers ran.
}

// --- First-finisher-wins races, driven deterministically through the JM. ---

// The placed-task index agrees with a recount of the task states (checked in
// every build type, on paths that change state without PlaceTask).
void ExpectPlacedIndexMatches(const JobManager& jm) {
  int placed = 0;
  for (TaskId t = 0; t < jm.total_tasks(); ++t) {
    placed += jm.task_state(t) == TaskState::kPlaced ? 1 : 0;
  }
  EXPECT_EQ(jm.CountPlacedTasks(), placed);
}

class SpecListener : public JobManagerListener {
 public:
  void OnTaskCompleted([[maybe_unused]] JobId job, TaskId task) override {
    completed.push_back(task);
  }
  void OnMonotaskCompleted([[maybe_unused]] JobId job, [[maybe_unused]] ResourceType type,
                           [[maybe_unused]] double bytes) override {
    ++monotasks;
  }
  void OnJobFinished([[maybe_unused]] JobId job) override { finished = true; }

  std::vector<TaskId> completed;
  int monotasks = 0;
  bool finished = false;
};

class SpeculationRaceTest : public ::testing::Test {
 protected:
  SpeculationRaceTest() {
    spec_config_.enabled = true;
    manager_ = std::make_unique<SpeculationManager>(spec_config_, &stats_);
    Build(RaceCluster(), ControlPlaneConfig());
  }

  static ClusterConfig RaceCluster() {
    ClusterConfig config;
    config.num_workers = 4;
    config.worker.cores = 8;
    config.worker.cpu_byte_rate = 1000.0;
    config.worker.memory_bytes = 1e12;
    return config;
  }

  // (Re)builds the cluster and the control plane; call before MakeJm.
  void Build(const ClusterConfig& config, const ControlPlaneConfig& cc) {
    cluster_ = std::make_unique<Cluster>(&sim_, config);
    // Mirror the scheduler's wiring: every worker reports discarded
    // duplicate work into the shared speculation accounting.
    for (int w = 0; w < cluster_->size(); ++w) {
      cluster_->worker(w).set_waste_sink(
          [this](ResourceType r, double bytes, double seconds) {
            manager_->RecordWaste(r, bytes, seconds);
          });
    }
    ctrl_ = std::make_unique<ControlPlane>(&sim_, cluster_.get(), cc, &stats_);
    // Every report, as delivered, is kept for replays.
    ctrl_->set_completion_handler([this](const ControlPlane::CompletionMsg& msg) {
      reports_.push_back(msg);
      jm_->OnReport(msg);
    });
  }

  // A job manager on the fixture's pass-through control plane, which routes
  // its monotask reports straight back to it.
  JobManager& MakeJm(Job* job, JobManagerListener* listener) {
    jm_ = std::make_unique<JobManager>(&sim_, cluster_.get(), job, listener, ctrl_.get());
    return *jm_;
  }

  // Same shape as the job manager tests: 4 scan tasks (1 CPU monotask each,
  // 1 s at full speed), then a 2-way shuffle + reduce (8 monotasks total).
  std::unique_ptr<Job> MakeJob() {
    JobSpec spec;
    spec.name = "race";
    spec.declared_memory_bytes = 1e9;
    OpGraph& graph = spec.graph;
    const DataId input =
        graph.CreateExternalData(std::vector<double>(4, 1000.0), "in");
    const DataId msg = graph.CreateData(4, "msg");
    const DataId shuffled = graph.CreateData(2, "shuffled");
    const DataId result = graph.CreateData(2, "result");
    OpHandle ser = graph.CreateOp(ResourceType::kCpu, "ser").Read(input).Create(msg);
    OpHandle shuffle =
        graph.CreateOp(ResourceType::kNetwork, "shuffle").Read(msg).Create(shuffled);
    OpHandle deser =
        graph.CreateOp(ResourceType::kCpu, "deser").Read(shuffled).Create(result);
    ser.To(shuffle, DepKind::kSync);
    shuffle.To(deser, DepKind::kAsync);
    return Job::Create(0, std::move(spec));
  }

  // Places the four scans with the target task on worker 0 and everything
  // else away from workers 0 and 3, leaving 3 free for the copy.
  TaskId PlaceScans(JobManager& jm) {
    const std::vector<TaskId> ready = jm.ready_tasks();
    EXPECT_EQ(ready.size(), 4u);
    const TaskId target = ready[0];
    EXPECT_TRUE(jm.PlaceTask(target, 0));
    EXPECT_TRUE(jm.PlaceTask(ready[1], 1));
    EXPECT_TRUE(jm.PlaceTask(ready[2], 2));
    EXPECT_TRUE(jm.PlaceTask(ready[3], 1));
    return target;
  }

  // Greedy completion driver restricted to `workers` (to keep the tail of a
  // test off slowed or failed machines).
  void Drive(JobManager& jm, const std::vector<WorkerId>& workers) {
    size_t next = 0;
    while (!jm.finished()) {
      const std::vector<TaskId> ready = jm.ready_tasks();
      if (ready.empty()) {
        ASSERT_TRUE(sim_.Step()) << "deadlock: no ready tasks and no events";
        continue;
      }
      for (TaskId t : ready) {
        ASSERT_TRUE(jm.PlaceTask(t, workers[next++ % workers.size()]));
      }
    }
  }

  void ExpectMemoryDrained() {
    for (int w = 0; w < cluster_->size(); ++w) {
      if (!cluster_->worker(w).failed()) {
        EXPECT_NEAR(cluster_->worker(w).free_memory(),
                    cluster_->worker(w).memory_capacity(), 1.0)
            << "worker " << w;
      }
    }
  }

  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  SpeculationConfig spec_config_;
  FaultCounters stats_;
  std::unique_ptr<SpeculationManager> manager_;
  std::unique_ptr<ControlPlane> ctrl_;
  std::unique_ptr<JobManager> jm_;
  std::vector<ControlPlane::CompletionMsg> reports_;
};

TEST_F(SpeculationRaceTest, OriginalWinsWhileCopyIsInFlight) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.1, [&] {
    cluster_->worker(3).set_speed_factor(0.05);  // The copy will lag badly.
    ASSERT_TRUE(jm.PlaceSpeculative(target, 3));
    EXPECT_TRUE(jm.has_speculative_copy(target));
    EXPECT_EQ(jm.speculative_worker(target), 3);
  });
  sim_.ScheduleAt(1.5, [&] {
    // The primary finished at t=1 and cancelled the in-flight copy.
    EXPECT_EQ(jm.task_state(target), TaskState::kCompleted);
    EXPECT_EQ(jm.task_worker(target), 0);
    EXPECT_FALSE(jm.has_speculative_copy(target));
    cluster_->worker(3).set_speed_factor(1.0);
  });
  Drive(jm, {0, 1, 2});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_launched, 1);
  EXPECT_EQ(stats_.speculations_lost, 1);
  EXPECT_EQ(stats_.speculations_won, 0);
  EXPECT_EQ(manager_->active(), 0);
  // The losing copy burned real (wall-clock) time on worker 3's core.
  EXPECT_GT(stats_.total_wasted_seconds(), 0.0);
  // Every monotask completion was delivered exactly once despite the race.
  EXPECT_EQ(listener.monotasks, 8);
  ExpectMemoryDrained();
}

TEST_F(SpeculationRaceTest, OriginalWinsWhileCopyIsStillQueued) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  // Saturate worker 3's cores so the copy's monotask can only queue.
  for (int i = 0; i < 8; ++i) {
    RunnableMonotask blocker;
    blocker.job = 99;
    blocker.type = ResourceType::kCpu;
    blocker.work = 100000.0;  // 100 s.
    blocker.input_bytes = 100000.0;
    cluster_->worker(3).Submit(std::move(blocker));
  }
  sim_.ScheduleAt(0.1, [&] { ASSERT_TRUE(jm.PlaceSpeculative(target, 3)); });
  Drive(jm, {0, 1, 2});
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_lost, 1);
  // The copy never left the queue: its cancellation charged nothing.
  EXPECT_DOUBLE_EQ(stats_.total_wasted_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(stats_.total_wasted_bytes(), 0.0);
  EXPECT_EQ(listener.monotasks, 8);
}

TEST_F(SpeculationRaceTest, CopyWinsWhenPrimaryStraggles) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.1, [&] {
    // The primary's worker becomes a straggler mid-monotask; the copy on
    // worker 3 runs at full speed and must finish first (t ~= 1.1 vs ~18).
    cluster_->worker(0).set_speed_factor(0.05);
    ASSERT_TRUE(jm.PlaceSpeculative(target, 3));
  });
  sim_.ScheduleAt(2.0, [&] {
    EXPECT_EQ(jm.task_state(target), TaskState::kCompleted);
    EXPECT_EQ(jm.task_worker(target), 3);  // The task now lives on the copy.
    EXPECT_FALSE(jm.has_speculative_copy(target));
    cluster_->worker(0).set_speed_factor(1.0);
  });
  Drive(jm, {1, 2, 3});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_launched, 1);
  EXPECT_EQ(stats_.speculations_won, 1);
  EXPECT_EQ(stats_.speculations_lost, 0);
  EXPECT_EQ(manager_->active(), 0);
  // The cancelled primary's partial work is the wasted side this time.
  EXPECT_GT(stats_.total_wasted_seconds(), 0.0);
  EXPECT_EQ(listener.monotasks, 8);
  ExpectMemoryDrained();
}

TEST_F(SpeculationRaceTest, PlaceSpeculativeRejectsInvalidTargets) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const std::vector<TaskId> ready = jm.ready_tasks();
  const TaskId target = ready[0];
  const TaskId unplaced = ready[1];
  ASSERT_TRUE(jm.PlaceTask(target, 0));
  EXPECT_FALSE(jm.PlaceSpeculative(unplaced, 1));  // Not placed yet.
  EXPECT_FALSE(jm.PlaceSpeculative(target, 0));    // Same worker as primary.
  cluster_->worker(2).Fail();
  EXPECT_FALSE(jm.PlaceSpeculative(target, 2));  // Failed worker.
  ASSERT_TRUE(jm.PlaceSpeculative(target, 1));
  EXPECT_FALSE(jm.PlaceSpeculative(target, 3));  // Already has a copy.
  EXPECT_EQ(stats_.speculations_launched, 1);
}

TEST_F(SpeculationRaceTest, AbortCancelsTheLiveCopy) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = jm.ready_tasks()[0];
  ASSERT_TRUE(jm.PlaceTask(target, 0));
  sim_.ScheduleAt(0.1, [&] { ASSERT_TRUE(jm.PlaceSpeculative(target, 3)); });
  sim_.ScheduleAt(0.5, [&] { jm.Abort(); });
  sim_.Run();
  EXPECT_TRUE(jm.aborted());
  EXPECT_EQ(stats_.speculations_cancelled, 1);
  EXPECT_EQ(manager_->active(), 0);
  ExpectMemoryDrained();
}

TEST_F(SpeculationRaceTest, PrimaryWorkerFailureHandsTaskToCopy) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.3, [&] { ASSERT_TRUE(jm.PlaceSpeculative(target, 3)); });
  sim_.ScheduleAt(0.5, [&] {
    // The primary's worker dies mid-monotask. The copy keeps running and
    // the task is handed over instead of being reset.
    cluster_->worker(0).Fail();
    jm.HandleWorkerFailureForSpeculation(0);
    EXPECT_TRUE(jm.primary_lost(target));
    EXPECT_TRUE(jm.has_speculative_copy(target));
    ExpectPlacedIndexMatches(jm);
  });
  Drive(jm, {1, 2, 3});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_won, 1);
  EXPECT_EQ(jm.task_worker(target), 3);
  EXPECT_FALSE(jm.primary_lost(target));
  EXPECT_EQ(manager_->active(), 0);
  ExpectMemoryDrained();
}

TEST_F(SpeculationRaceTest, BothWorkersFailingRerunsTheTaskExactlyOnce) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.3, [&] { ASSERT_TRUE(jm.PlaceSpeculative(target, 3)); });
  sim_.ScheduleAt(0.5, [&] {
    // First the primary's worker dies (the copy takes over)...
    cluster_->worker(0).Fail();
    jm.HandleWorkerFailureForSpeculation(0);
    const JobManager::RecoveryResult first = jm.RecoverFromWorkerFailure(0);
    EXPECT_EQ(first.tasks_reset, 0);  // The copy shields the task.
    EXPECT_TRUE(jm.primary_lost(target));
  });
  sim_.ScheduleAt(0.7, [&] {
    // ...then the copy's worker dies too. Lineage recovery must re-seed the
    // task - exactly once, from scratch.
    cluster_->worker(3).Fail();
    jm.HandleWorkerFailureForSpeculation(3);
    EXPECT_FALSE(jm.has_speculative_copy(target));
    const JobManager::RecoveryResult second = jm.RecoverFromWorkerFailure(3);
    EXPECT_EQ(second.tasks_reset, 1);
    EXPECT_EQ(jm.task_state(target), TaskState::kReady);
    ExpectPlacedIndexMatches(jm);
  });
  Drive(jm, {1, 2});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_cancelled, 1);
  EXPECT_EQ(stats_.speculations_won, 0);
  EXPECT_EQ(manager_->active(), 0);
  // The dropped primary never delivered its completion; the re-run did,
  // exactly once - so the total is still the plan's 8 monotasks.
  EXPECT_EQ(listener.monotasks, 8);
  ExpectMemoryDrained();
}

TEST_F(SpeculationRaceTest, CopyWinsThenItsWorkerFails) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.1, [&] {
    cluster_->worker(0).set_speed_factor(0.05);
    ASSERT_TRUE(jm.PlaceSpeculative(target, 3));
  });
  // Let the copy win (t ~= 1.1) but do not place the next stage yet; then
  // kill the copy's worker. Its committed outputs die with it, so lineage
  // recovery must re-run the task even though it "completed".
  sim_.Run(2.0);
  ASSERT_EQ(stats_.speculations_won, 1);
  ASSERT_EQ(jm.task_worker(target), 3);
  cluster_->worker(0).set_speed_factor(1.0);
  cluster_->worker(3).Fail();
  jm.HandleWorkerFailureForSpeculation(3);  // No live copies: a no-op.
  const JobManager::RecoveryResult recovery = jm.RecoverFromWorkerFailure(3);
  EXPECT_GE(recovery.tasks_reset, 1);
  EXPECT_EQ(jm.task_state(target), TaskState::kReady);
  ExpectPlacedIndexMatches(jm);
  Drive(jm, {0, 1, 2});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  ExpectMemoryDrained();
}

// Places the four scans on worker 1, runs them and returns the two ready
// reducers: a shuffle (network) then a deserialize (CPU) each.
std::vector<TaskId> RunScans(JobManager& jm, Simulator& sim) {
  for (TaskId t : std::vector<TaskId>(jm.ready_tasks())) {
    EXPECT_TRUE(jm.PlaceTask(t, 1));
  }
  while (jm.ready_tasks().empty()) {
    EXPECT_TRUE(sim.Step());
  }
  return jm.ready_tasks();
}

// Every delivery reaches the job manager twice (the control plane duplicates
// each message). The copy of a reducer finishes its shuffle while its CPU
// monotask is still to run, so that shuffle's duplicate report reaches a
// live copy and must not advance it twice.
TEST_F(SpeculationRaceTest, DuplicatedCopyReportsChangeNothing) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.dup_prob = 1.0;
  Build(RaceCluster(), cc);
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const std::vector<TaskId> reducers = RunScans(jm, sim_);
  ASSERT_EQ(reducers.size(), 2u);
  cluster_->worker(0).set_speed_factor(0.05);  // The primary's CPU straggles.
  ASSERT_TRUE(jm.PlaceTask(reducers[0], 0));
  ASSERT_TRUE(jm.PlaceTask(reducers[1], 1));
  sim_.Schedule(0.1, [&] { ASSERT_TRUE(jm.PlaceSpeculative(reducers[0], 3)); });
  sim_.Run();
  int copy_reports = 0;
  for (const ControlPlane::CompletionMsg& msg : reports_) {
    copy_reports += msg.key.channel != 0 ? 1 : 0;
  }
  EXPECT_EQ(copy_reports, 4);  // The copy's two monotasks, delivered twice.
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_won, 1);
  EXPECT_EQ(stats_.speculations_lost, 0);
  EXPECT_EQ(stats_.speculations_cancelled, 0);
  EXPECT_EQ(jm.task_worker(reducers[0]), 3);
  EXPECT_EQ(listener.monotasks, 8);
  EXPECT_EQ(manager_->active(), 0);
  ExpectMemoryDrained();
}

// A copy gets no retries: its first failed monotask cancels it, and the
// primary, which never failed, is neither retried nor reset.
TEST_F(SpeculationRaceTest, FailedCopyIsCancelledWithoutRetry) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.ConfigureFaultPolicy(3, &stats_);
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.1, [&] {
    cluster_->worker(0).set_speed_factor(0.05);  // The copy would win...
    cluster_->worker(3).InjectTransientFailures(1);  // ...but fails instead.
    ASSERT_TRUE(jm.PlaceSpeculative(target, 3));
  });
  sim_.ScheduleAt(2.0, [&] {
    EXPECT_FALSE(jm.has_speculative_copy(target));
    EXPECT_EQ(jm.task_state(target), TaskState::kPlaced);
    EXPECT_EQ(jm.task_worker(target), 0);
    cluster_->worker(0).set_speed_factor(1.0);
  });
  Drive(jm, {0, 1, 2});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_cancelled, 1);
  EXPECT_EQ(stats_.speculations_won + stats_.speculations_lost, 0);
  EXPECT_EQ(stats_.transient_failures, 0);  // Counts the primary's only.
  EXPECT_EQ(stats_.retries, 0);
  EXPECT_EQ(stats_.escalations, 0);
  EXPECT_EQ(jm.task_worker(target), 0);
  EXPECT_EQ(listener.monotasks, 8);
  ExpectMemoryDrained();
}

// Reports of a copy whose race is over (won here) find no live copy on their
// channel and are dropped: replaying them, as completions or as failures,
// neither re-completes nor resets the task.
TEST_F(SpeculationRaceTest, CopyReportsAfterTheRaceChangeNothing) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.1, [&] {
    cluster_->worker(0).set_speed_factor(0.05);
    ASSERT_TRUE(jm.PlaceSpeculative(target, 3));
  });
  sim_.ScheduleAt(2.0, [&] {
    ASSERT_EQ(stats_.speculations_won, 1);
    ASSERT_EQ(jm.task_state(target), TaskState::kCompleted);
    cluster_->worker(0).set_speed_factor(1.0);
    std::vector<ControlPlane::CompletionMsg> late;
    for (const ControlPlane::CompletionMsg& msg : reports_) {
      if (msg.key.channel != 0) {
        late.push_back(msg);
        ControlPlane::CompletionMsg failed = msg;
        failed.failed = true;
        late.push_back(failed);
        ControlPlane::CompletionMsg other = msg;  // A channel never launched.
        other.key.channel += 1;
        late.push_back(other);
      }
    }
    ASSERT_EQ(late.size(), 3u);
    const int monotasks = listener.monotasks;
    const size_t completed = listener.completed.size();
    for (const ControlPlane::CompletionMsg& msg : late) {
      ctrl_->CompletionToScheduler(msg);
    }
    EXPECT_EQ(listener.monotasks, monotasks);
    EXPECT_EQ(listener.completed.size(), completed);
    EXPECT_EQ(jm.task_state(target), TaskState::kCompleted);
    EXPECT_EQ(jm.task_worker(target), 3);
    EXPECT_EQ(stats_.escalations, 0);
    EXPECT_EQ(stats_.speculations_cancelled, 0);
    ExpectPlacedIndexMatches(jm);
  });
  Drive(jm, {1, 2, 3});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(listener.monotasks, 8);
  EXPECT_EQ(stats_.speculations_won, 1);
  EXPECT_EQ(manager_->active(), 0);
  ExpectMemoryDrained();
}

// A report on the channel of a cancelled copy must not reach the task's next
// copy: each copy has its own channel, and only the live one's reports count.
TEST_F(SpeculationRaceTest, StaleChannelReportMissesTheLiveCopy) {
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  const TaskId target = PlaceScans(jm);
  sim_.ScheduleAt(0.1, [&] { ASSERT_TRUE(jm.PlaceSpeculative(target, 3)); });
  sim_.ScheduleAt(0.2, [&] {
    cluster_->worker(3).Fail();  // Cancels the first copy (channel 1)...
    jm.HandleWorkerFailureForSpeculation(3);
    ASSERT_FALSE(jm.has_speculative_copy(target));
    ASSERT_TRUE(jm.PlaceSpeculative(target, 2));  // ...and races a second one.
    ControlPlane::CompletionMsg stale;
    stale.key = MsgKey{job->id, 0, job->plan.task(target).monotasks[0], 0, 0, 1};
    stale.worker = 3;
    ctrl_->CompletionToScheduler(stale);
    EXPECT_TRUE(jm.has_speculative_copy(target));
    EXPECT_EQ(jm.task_state(target), TaskState::kPlaced);
    EXPECT_EQ(stats_.speculations_won, 0);
  });
  Drive(jm, {0, 1, 2});
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  // The primary (placed at 0) beat the second copy (started at 0.2).
  EXPECT_EQ(jm.task_worker(target), 0);
  EXPECT_EQ(stats_.speculations_cancelled, 1);
  EXPECT_EQ(stats_.speculations_lost, 1);
  EXPECT_EQ(stats_.speculations_won, 0);
  EXPECT_EQ(listener.monotasks, 8);
  ExpectMemoryDrained();
}

// A losing primary's finished network monotask is charged as wasted time at
// the receiving worker's downlink (1 Gbps here), not at a fixed default rate.
TEST_F(SpeculationRaceTest, WastedNetworkSecondsUseTheDownlink) {
  ClusterConfig config = RaceCluster();
  config.downlink_bytes_per_sec = 1e9 / 8.0;
  Build(config, ControlPlaneConfig());
  auto job = MakeJob();
  SpecListener listener;
  JobManager& jm = MakeJm(job.get(), &listener);
  jm.ConfigureSpeculation(manager_.get());
  jm.Start();
  // The primary's shuffle finishes at full speed; its CPU monotask straggles
  // on worker 0.
  const std::vector<TaskId> reducers = RunScans(jm, sim_);
  ASSERT_EQ(reducers.size(), 2u);
  cluster_->worker(0).set_speed_factor(0.05);
  ASSERT_TRUE(jm.PlaceTask(reducers[0], 0));
  ASSERT_TRUE(jm.PlaceTask(reducers[1], 1));
  sim_.Schedule(0.1, [&] { ASSERT_TRUE(jm.PlaceSpeculative(reducers[0], 3)); });
  sim_.Run();
  EXPECT_TRUE(listener.finished);
  EXPECT_EQ(stats_.speculations_won, 1);
  const size_t net = static_cast<size_t>(ResourceType::kNetwork);
  ASSERT_GT(stats_.wasted_bytes[net], 0.0);
  EXPECT_DOUBLE_EQ(stats_.wasted_seconds[net],
                   stats_.wasted_bytes[net] / config.downlink_bytes_per_sec);
}

// --- End-to-end: the scheduler's detection -> placement loop. ---

class SpeculationSchedulerTest : public ::testing::Test {
 protected:
  SpeculationSchedulerTest() {
    config_.num_workers = 4;
    config_.worker.cores = 8;
    config_.worker.cpu_byte_rate = 100e6;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  void SubmitTpch(UrsaScheduler& scheduler, int num_jobs, uint64_t seed) {
    TpchWorkloadConfig wc;
    wc.num_jobs = num_jobs;
    wc.submit_interval = 2.0;
    wc.seed = seed;
    workload_ = MakeTpchWorkload(wc);
    for (size_t i = 0; i < workload_.jobs.size(); ++i) {
      sim_.ScheduleAt(workload_.jobs[i].submit_time, [this, &scheduler, i] {
        scheduler.SubmitJob(
            Job::Create(static_cast<JobId>(i), workload_.jobs[i].spec));
      });
    }
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
  Workload workload_;
};

TEST_F(SpeculationSchedulerTest, SpeculatesAgainstDegradedWorkerAndFinishes) {
  UrsaSchedulerConfig sc;
  sc.spec.enabled = true;
  sc.spec.min_runtime = 0.5;
  sc.spec.min_stage_samples = 2;
  sc.spec.slowdown_threshold = 1.3;
  sc.spec.mad_multiplier = 2.0;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  SubmitTpch(scheduler, 6, 7);
  // A severe straggler appears early and never recovers.
  sim_.Schedule(1.0, [&] { cluster_->worker(0).set_speed_factor(0.05); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  const FaultCounters& f = scheduler.fault_stats();
  EXPECT_GT(f.speculations_launched, 0);
  // Every launched copy was resolved: won, lost or cancelled.
  EXPECT_EQ(f.speculations_launched,
            f.speculations_won + f.speculations_lost + f.speculations_cancelled);
  ASSERT_NE(scheduler.speculation_manager(), nullptr);
  EXPECT_EQ(scheduler.speculation_manager()->active(), 0);
  if (f.speculations_won + f.speculations_lost > 0) {
    EXPECT_GT(f.total_wasted_seconds(), 0.0);
  }
  for (int w = 0; w < cluster_->size(); ++w) {
    EXPECT_NEAR(cluster_->worker(w).free_memory(),
                cluster_->worker(w).memory_capacity(), 1.0)
        << "worker " << w;
  }
}

TEST_F(SpeculationSchedulerTest, DisabledByDefaultLaunchesNothing) {
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  SubmitTpch(scheduler, 3, 11);
  sim_.Schedule(1.0, [&] { cluster_->worker(0).set_speed_factor(0.05); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(scheduler.speculation_manager(), nullptr);
  EXPECT_EQ(scheduler.fault_stats().speculations_launched, 0);
}

TEST_F(SpeculationSchedulerTest, SpeculationSurvivesWorkerFailureMidRace) {
  UrsaSchedulerConfig sc;
  sc.spec.enabled = true;
  sc.spec.min_runtime = 0.5;
  sc.spec.min_stage_samples = 2;
  sc.spec.slowdown_threshold = 1.3;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  SubmitTpch(scheduler, 4, 13);
  sim_.Schedule(1.0, [&] { cluster_->worker(0).set_speed_factor(0.05); });
  // Kill a healthy worker while copies may be racing on it.
  sim_.Schedule(8.0, [&] { scheduler.FailWorker(2); });
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  const FaultCounters& f = scheduler.fault_stats();
  EXPECT_EQ(f.speculations_launched,
            f.speculations_won + f.speculations_lost + f.speculations_cancelled);
  EXPECT_EQ(scheduler.speculation_manager()->active(), 0);
  for (int w = 0; w < cluster_->size(); ++w) {
    if (!cluster_->worker(w).failed()) {
      EXPECT_NEAR(cluster_->worker(w).free_memory(),
                  cluster_->worker(w).memory_capacity(), 1.0)
          << "worker " << w;
    }
  }
}

// With lineage off a worker failure restarts the job with a fresh job
// manager. A copy report still in flight from the freed manager lands on the
// new incarnation and is counted as fenced. One job only, so any copy report
// fenced before it finishes was fenced by a restart, not by the job's end.
TEST_F(SpeculationSchedulerTest, CopyReportAfterFullRestartIsFenced) {
  UrsaSchedulerConfig sc;
  sc.fault.enable_lineage_recovery = false;
  sc.ctrl.enabled = true;
  sc.ctrl.loss_prob = 0.3;  // Retransmits keep reports in flight longer.
  sc.spec.enabled = true;
  sc.spec.min_runtime = 0.5;
  sc.spec.min_stage_samples = 2;
  sc.spec.slowdown_threshold = 1.3;
  Tracer tracer;
  cluster_->set_tracer(&tracer);
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  scheduler.set_tracer(&tracer);
  SubmitTpch(scheduler, 1, 17);
  sim_.Schedule(1.0, [&] { cluster_->worker(0).set_speed_factor(0.05); });
  for (int i = 0; i < 6; ++i) {
    const WorkerId w = 1 + i % 3;
    sim_.Schedule(4.0 + 4.0 * i, [&, w] { scheduler.FailWorker(w); });
    sim_.Schedule(6.0 + 4.0 * i, [&, w] { cluster_->worker(w).Recover(); });
  }
  sim_.Run();
  ASSERT_TRUE(scheduler.AllJobsFinished());
  ASSERT_EQ(tracer.dropped(), 0u);
  const double finish = scheduler.job_records()[0].finish_time;
  int fenced_copy_reports = 0;
  int fenced = 0;
  for (const TraceEvent& e : tracer.Snapshot()) {
    if (e.kind == TraceEventKind::kMsgFenced) {
      ++fenced;
      fenced_copy_reports += e.a > 0.0 && e.t < finish ? 1 : 0;
    }
  }
  EXPECT_GT(scheduler.fault_stats().full_restarts, 0);
  EXPECT_GT(fenced_copy_reports, 0);
  EXPECT_EQ(fenced, scheduler.fault_stats().msgs_fenced);
}

}  // namespace
}  // namespace ursa
