// Tests for the job manager's runtime behaviour: ready-task tracking,
// barrier semantics, monotask streaming to workers, memory allocation and
// release, remaining-work accounting (sections 4.1.3, 4.2.1).
#include <gtest/gtest.h>

#include "src/exec/job_manager.h"

namespace ursa {
namespace {

class RecordingListener : public JobManagerListener {
 public:
  void OnTaskReady([[maybe_unused]] JobId job, TaskId task) override { ready.push_back(task); }
  void OnTaskCompleted([[maybe_unused]] JobId job, TaskId task) override {
    completed.push_back(task);
  }
  void OnJobFinished([[maybe_unused]] JobId job) override { finished = true; }
  void OnMonotaskCompleted([[maybe_unused]] JobId job, [[maybe_unused]] ResourceType type,
                           [[maybe_unused]] double bytes) override {
    ++monotasks;
  }

  std::vector<TaskId> ready;
  std::vector<TaskId> completed;
  int monotasks = 0;
  bool finished = false;
};

class JobManagerTest : public ::testing::Test {
 protected:
  JobManagerTest() {
    ClusterConfig config;
    config.num_workers = 4;
    config.worker.cores = 8;
    config.worker.cpu_byte_rate = 1000.0;
    config.worker.memory_bytes = 1e12;
    cluster_ = std::make_unique<Cluster>(&sim_, config);
    ctrl_ = std::make_unique<ControlPlane>(&sim_, cluster_.get(), ControlPlaneConfig(), nullptr);
    ctrl_->set_completion_handler(
        [this](const CompletionMsg& msg) { jm_->OnReport(msg); });
  }

  // A job manager on the fixture's pass-through control plane, which routes
  // its monotask reports straight back to it.
  JobManager& MakeJm(Job* job) {
    jm_ = std::make_unique<JobManager>(&sim_, cluster_.get(), job, &listener_, ctrl_.get());
    return *jm_;
  }

  std::unique_ptr<Job> MakeJob(int in_parts = 4, int out_parts = 2) {
    JobSpec spec;
    spec.name = "job";
    spec.declared_memory_bytes = 1e9;
    OpGraph& graph = spec.graph;
    const DataId input = graph.CreateExternalData(
        std::vector<double>(static_cast<size_t>(in_parts), 1000.0), "in");
    const DataId msg = graph.CreateData(in_parts, "msg");
    const DataId shuffled = graph.CreateData(out_parts, "shuffled");
    const DataId result = graph.CreateData(out_parts, "result");
    OpHandle ser = graph.CreateOp(ResourceType::kCpu, "ser").Read(input).Create(msg);
    OpHandle shuffle =
        graph.CreateOp(ResourceType::kNetwork, "shuffle").Read(msg).Create(shuffled);
    OpHandle deser =
        graph.CreateOp(ResourceType::kCpu, "deser").Read(shuffled).Create(result);
    ser.To(shuffle, DepKind::kSync);
    shuffle.To(deser, DepKind::kAsync);
    return Job::Create(0, std::move(spec));
  }

  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  RecordingListener listener_;
  std::unique_ptr<ControlPlane> ctrl_;
  std::unique_ptr<JobManager> jm_;
};

TEST_F(JobManagerTest, InitialReadyTasksAreSourceStage) {
  auto job = MakeJob();
  JobManager& jm = MakeJm(job.get());
  jm.Start();
  EXPECT_EQ(listener_.ready.size(), 4u);  // The 4 scan tasks.
  EXPECT_EQ(jm.ready_tasks().size(), 4u);
}

TEST_F(JobManagerTest, BarrierHoldsUntilWholeStageCompletes) {
  auto job = MakeJob();
  JobManager& jm = MakeJm(job.get());
  jm.Start();
  // Place 3 of 4 scans; the shuffle stage must stay blocked.
  const auto ready = jm.ready_tasks();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(jm.PlaceTask(ready[static_cast<size_t>(i)], i % cluster_->size()));
  }
  sim_.Run();
  EXPECT_EQ(listener_.completed.size(), 3u);
  EXPECT_EQ(jm.ready_tasks().size(), 1u);  // Only the unplaced scan.
  // Place the last scan: the downstream stage becomes ready.
  ASSERT_TRUE(jm.PlaceTask(jm.ready_tasks()[0], 3));
  sim_.Run();
  EXPECT_EQ(jm.ready_tasks().size(), 2u);
  for (TaskId t : jm.ready_tasks()) {
    EXPECT_EQ(job->plan.task(t).stage, 1);
  }
}

TEST_F(JobManagerTest, RunsToCompletionAndReportsFinish) {
  auto job = MakeJob();
  JobManager& jm = MakeJm(job.get());
  jm.Start();
  // Greedy driver: place every ready task round-robin whenever idle.
  int next_worker = 0;
  while (!jm.finished()) {
    const auto ready = jm.ready_tasks();
    if (ready.empty()) {
      ASSERT_TRUE(sim_.Step()) << "deadlock: no ready tasks and no events";
      continue;
    }
    for (TaskId t : ready) {
      ASSERT_TRUE(jm.PlaceTask(t, next_worker++ % cluster_->size()));
    }
  }
  EXPECT_TRUE(listener_.finished);
  EXPECT_EQ(jm.completed_tasks(), jm.total_tasks());
  EXPECT_EQ(listener_.monotasks, 4 + 2 * 2);
  EXPECT_GT(jm.cpu_seconds_used(), 0.0);
  // All memory returned.
  for (int w = 0; w < cluster_->size(); ++w) {
    EXPECT_DOUBLE_EQ(cluster_->worker(w).free_memory(),
                     cluster_->worker(w).memory_capacity());
  }
}

TEST_F(JobManagerTest, RemainingWorkDecreasesMonotonically) {
  auto job = MakeJob();
  JobManager& jm = MakeJm(job.get());
  jm.Start();
  const auto initial = jm.remaining_work();
  EXPECT_DOUBLE_EQ(initial[static_cast<size_t>(ResourceType::kCpu)], 8000.0);
  EXPECT_DOUBLE_EQ(initial[static_cast<size_t>(ResourceType::kNetwork)], 4000.0);
  int next_worker = 0;
  double prev_cpu = initial[0];
  while (!jm.finished()) {
    for (TaskId t : std::vector<TaskId>(jm.ready_tasks())) {
      ASSERT_TRUE(jm.PlaceTask(t, next_worker++ % cluster_->size()));
    }
    if (!sim_.Step()) {
      break;
    }
    EXPECT_LE(jm.remaining_work()[0], prev_cpu + 1e-9);
    prev_cpu = jm.remaining_work()[0];
  }
  EXPECT_NEAR(jm.remaining_work()[0], 0.0, 1e-6);
  EXPECT_NEAR(jm.remaining_work()[1], 0.0, 1e-6);
}

TEST_F(JobManagerTest, PlacementFailsWithoutMemory) {
  ClusterConfig tiny;
  tiny.num_workers = 1;
  tiny.worker.memory_bytes = 1.0;  // Nothing fits.
  Cluster small(&sim_, tiny);
  auto job = MakeJob();
  ControlPlane ctrl(&sim_, &small, ControlPlaneConfig(), nullptr);
  JobManager jm(&sim_, &small, job.get(), &listener_, &ctrl);
  jm.Start();
  EXPECT_FALSE(jm.PlaceTask(jm.ready_tasks()[0], 0));
  // Task stays ready for a later attempt.
  EXPECT_EQ(jm.ready_tasks().size(), 4u);
  EXPECT_EQ(jm.task_state(jm.ready_tasks()[0]), TaskState::kReady);
}

TEST_F(JobManagerTest, MonotasksOfTaskRunOnAssignedWorker) {
  auto job = MakeJob();
  JobManager& jm = MakeJm(job.get());
  jm.Start();
  for (TaskId t : std::vector<TaskId>(jm.ready_tasks())) {
    ASSERT_TRUE(jm.PlaceTask(t, 2));
  }
  sim_.Run();
  EXPECT_EQ(cluster_->worker(2).completed(ResourceType::kCpu), 4);
  EXPECT_EQ(cluster_->worker(0).completed(ResourceType::kCpu), 0);
  // Outputs were recorded at worker 2.
  EXPECT_EQ(cluster_->metadata().Get(0, 1, 0).worker, 2);
}

}  // namespace
}  // namespace ursa
