// Tests for the baseline subsystems: the YARN-like container manager, the
// executor-model runtime modes, the packing placement algorithms, and the
// BSP (Petuum/Gemini-like) runtime.
#include <gtest/gtest.h>

#include "src/baselines/bsp_runtime.h"
#include "src/baselines/container_manager.h"
#include "src/baselines/executor_runtime.h"
#include "src/baselines/packing_schedulers.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

class ContainerManagerTest : public ::testing::Test {
 protected:
  ContainerManagerTest() {
    config_.num_workers = 2;
    config_.worker.cores = 8;
    config_.worker.memory_bytes = 64.0 * 1024 * 1024 * 1024;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ContainerManagerTest, GrantsAtHeartbeatGranularity) {
  ContainerManager cm(&sim_, cluster_.get(), ContainerManagerConfig());
  std::vector<double> grant_times;
  cm.RequestContainers(0, 4, 1e9, 2, [&](WorkerId) { grant_times.push_back(sim_.Now()); });
  sim_.Run(0.5);
  EXPECT_TRUE(grant_times.empty());  // Before the first heartbeat.
  sim_.Run();
  ASSERT_EQ(grant_times.size(), 2u);
  EXPECT_NEAR(grant_times[0], 1.0, 1e-9);
}

TEST_F(ContainerManagerTest, FifoHeadOfLineBlocks) {
  ContainerManager cm(&sim_, cluster_.get(), {});
  int job0_granted = 0;
  int job1_granted = 0;
  // Job 0 wants 5 containers of 6 cores (only 2 fit, leaving 2 free cores
  // per worker); job 1 wants a tiny one that would fit, but FIFO holds it
  // behind job 0's blocked request.
  cm.RequestContainers(0, 6, 1e9, 5, [&](WorkerId) { ++job0_granted; });
  cm.RequestContainers(1, 1, 1e9, 1, [&](WorkerId) { ++job1_granted; });
  sim_.Run(10.0);
  EXPECT_EQ(job0_granted, 2);
  EXPECT_EQ(job1_granted, 0);
  // Cancel job 0's backlog: job 1 gets through on the next heartbeat.
  cm.CancelPending(0);
  sim_.Run(12.0);
  EXPECT_EQ(job1_granted, 1);
}

TEST_F(ContainerManagerTest, ReleaseMakesRoom) {
  ContainerManager cm(&sim_, cluster_.get(), {});
  std::vector<WorkerId> granted;
  cm.RequestContainers(0, 8, 1e9, 2, [&](WorkerId w) { granted.push_back(w); });
  sim_.Run(5.0);
  ASSERT_EQ(granted.size(), 2u);
  int extra = 0;
  cm.RequestContainers(1, 8, 1e9, 1, [&](WorkerId) { ++extra; });
  sim_.Run(8.0);
  EXPECT_EQ(extra, 0);  // Cluster cores exhausted.
  cm.ReleaseContainer(0, granted[0], 8, 1e9);
  sim_.Run(11.0);
  EXPECT_EQ(extra, 1);
}

TEST_F(ContainerManagerTest, OversubscriptionExpandsLogicalCores) {
  ContainerManagerConfig cm_config;
  cm_config.cpu_subscription_ratio = 2.0;
  ContainerManager cm(&sim_, cluster_.get(), cm_config);
  int granted = 0;
  // 2 workers x 8 cores x ratio 2 = 32 logical cores -> 4 containers of 8.
  cm.RequestContainers(0, 8, 1e9, 5, [&](WorkerId) { ++granted; });
  sim_.Run(5.0);
  EXPECT_EQ(granted, 4);
}

TEST(PackingState, TetrisBlocksOnPhantomNetworkDemand) {
  Simulator sim;
  ClusterConfig config;
  config.num_workers = 1;
  config.worker.cores = 32;
  Cluster cluster(&sim, config);
  PackingState tetris(&cluster, PlacementAlgorithm::kTetris);
  PackingState tetris2(&cluster, PlacementAlgorithm::kTetris2);
  TaskUsage shuffle_task;
  shuffle_task.bytes[static_cast<size_t>(ResourceType::kNetwork)] = 1e9;
  shuffle_task.memory = 1e6;
  // Tetris reserves a downlink slice per task: only a few fit despite 32
  // cores; Tetris2 packs all of them.
  int tetris_fit = 0;
  int tetris2_fit = 0;
  for (int i = 0; i < 32; ++i) {
    if (tetris.SelectWorker(shuffle_task) != kInvalidId) {
      tetris.Reserve(0, i, 0, shuffle_task);
      ++tetris_fit;
    }
    if (tetris2.SelectWorker(shuffle_task) != kInvalidId) {
      tetris2.Reserve(0, i, 0, shuffle_task);
      ++tetris2_fit;
    }
  }
  EXPECT_LT(tetris_fit, 32);
  EXPECT_EQ(tetris2_fit, 32);
  // Releases restore capacity.
  for (int i = 0; i < tetris_fit; ++i) {
    tetris.Release(0, i);
  }
  EXPECT_DOUBLE_EQ(tetris.reserved_cores(0), 0.0);
}

TEST(PackingState, CapacityPrefersLeastLoadedWorker) {
  Simulator sim;
  ClusterConfig config;
  config.num_workers = 2;
  config.worker.cores = 4;
  Cluster cluster(&sim, config);
  PackingState capacity(&cluster, PlacementAlgorithm::kCapacity);
  TaskUsage task;
  task.bytes[static_cast<size_t>(ResourceType::kCpu)] = 1e6;
  task.memory = 1e6;
  const WorkerId first = capacity.SelectWorker(task);
  capacity.Reserve(0, 0, first, task);
  EXPECT_NE(capacity.SelectWorker(task), first);  // Balance to the other.
}

TEST(ExecutorRuntime, DynamicAllocationReleasesIdleExecutors) {
  Simulator sim;
  ClusterConfig config;
  Cluster cluster(&sim, config);
  ExecutorModelConfig exec_config;
  exec_config.mode = ExecutorMode::kTaskSlots;
  exec_config.dynamic_allocation = true;
  ExecutorModelScheduler scheduler(&sim, &cluster, exec_config, {});
  auto job = Job::Create(0, MakeTpchQuery(6, 100.0 * 1024 * 1024 * 1024, 3));
  scheduler.SubmitJob(std::move(job));
  sim.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // Allocation must drop back to zero after the job: everything released.
  const double t = sim.Now();
  for (int w = 0; w < cluster.size(); ++w) {
    EXPECT_DOUBLE_EQ(cluster.worker(w).cpu_alloc_tracker().current(), 0.0);
    EXPECT_DOUBLE_EQ(cluster.worker(w).free_memory(), cluster.worker(w).memory_capacity());
  }
  (void)t;
}

TEST(ExecutorRuntime, TaskSlotModeHoldsCoresDuringFetch) {
  // UE < 100%: allocated core-time strictly exceeds busy core-time for a
  // job with shuffles.
  Simulator sim;
  Cluster cluster(&sim, {});
  ExecutorModelConfig exec_config;  // Spark-like defaults.
  exec_config.executor_cores = 4;
  ExecutorModelScheduler scheduler(&sim, &cluster, exec_config, {});
  scheduler.SubmitJob(Job::Create(0, MakeTpchQuery(5, 200.0 * 1024 * 1024 * 1024, 5)));
  sim.Run();
  ASSERT_TRUE(scheduler.AllJobsFinished());
  double busy = 0.0;
  double alloc = 0.0;
  for (int w = 0; w < cluster.size(); ++w) {
    busy += cluster.worker(w).cpu_busy_tracker().IntegralTo(sim.Now());
    alloc += cluster.worker(w).cpu_alloc_tracker().IntegralTo(sim.Now());
  }
  EXPECT_GT(alloc, busy * 1.2);
}

TEST(BspRuntime, AlternatesComputeAndSync) {
  Simulator sim;
  Cluster cluster(&sim, {});
  BspJobConfig config;
  config.iterations = 3;
  config.compute_bytes_per_worker = 32 * 250e6;  // 1 s on 32 cores.
  config.sync_bytes_per_worker = 1.25e9 * 0.5;   // ~0.5 s at 10 Gbps.
  bool finished = false;
  BspRuntime bsp(&sim, &cluster, config, [&] { finished = true; });
  bsp.Run();
  sim.Run();
  EXPECT_TRUE(finished);
  EXPECT_GT(bsp.finish_time(), 3.0);  // At least 3 compute phases.
  // During compute phases CPU is ~fully busy; during sync it is zero:
  // the average must sit strictly between.
  const double avg = cluster.worker(0).cpu_busy_tracker().IntegralTo(bsp.finish_time()) /
                     bsp.finish_time() / 32.0;
  EXPECT_GT(avg, 0.3);
  EXPECT_LT(avg, 0.95);
  // All resources returned at the end.
  EXPECT_DOUBLE_EQ(cluster.worker(0).cpu_alloc_tracker().current(), 0.0);
}

}  // namespace
}  // namespace ursa
