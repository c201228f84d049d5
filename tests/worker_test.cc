// Tests for the per-resource monotask queues and the simulated worker:
// ordering policies, concurrency control, APT load reporting, processing
// rate monitoring, memory accounting and the small-transfer bypass
// (sections 4.2.2 / 4.2.3).
#include <gtest/gtest.h>

#include "src/exec/cluster.h"

namespace ursa {
namespace {

RunnableMonotask MakeTask(JobId job, double priority, double intra, double bytes) {
  RunnableMonotask mt;
  mt.job = job;
  mt.job_priority = priority;
  mt.intra_key = intra;
  mt.input_bytes = bytes;
  mt.work = bytes;
  return mt;
}

TEST(MonotaskQueue, OrdersByJobPriorityThenIntraKey) {
  MonotaskQueue queue;
  queue.Push(MakeTask(2, 2.0, 0.0, 1.0));
  queue.Push(MakeTask(1, 1.0, 5.0, 2.0));
  queue.Push(MakeTask(1, 1.0, 3.0, 3.0));
  EXPECT_EQ(queue.Pop().input_bytes, 3.0);  // Job 1, smaller intra key.
  EXPECT_EQ(queue.Pop().input_bytes, 2.0);
  EXPECT_EQ(queue.Pop().input_bytes, 1.0);
  EXPECT_TRUE(queue.Empty());
}

TEST(MonotaskQueue, FifoAmongTies) {
  MonotaskQueue queue;
  for (int i = 0; i < 5; ++i) {
    queue.Push(MakeTask(1, 0.0, 0.0, static_cast<double>(i)));
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(queue.Pop().input_bytes, static_cast<double>(i));
  }
}

TEST(MonotaskQueue, TracksQueuedBytes) {
  MonotaskQueue queue;
  queue.Push(MakeTask(1, 0.0, 0.0, 10.0));
  queue.Push(MakeTask(1, 0.0, 0.0, 30.0));
  EXPECT_DOUBLE_EQ(queue.queued_bytes(), 40.0);
  queue.Pop();
  EXPECT_DOUBLE_EQ(queue.queued_bytes(), 30.0);
}

TEST(MonotaskQueue, ReprioritizeResorts) {
  MonotaskQueue queue;
  queue.Push(MakeTask(1, 1.0, 0.0, 1.0));
  queue.Push(MakeTask(2, 2.0, 0.0, 2.0));
  // Invert priorities: job 2 becomes more urgent.
  queue.Reprioritize([](JobId job) { return job == 2 ? 0.0 : 1.0; });
  EXPECT_EQ(queue.Pop().job, 2);
  EXPECT_EQ(queue.Pop().job, 1);
}

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() {
    ClusterConfig config;
    config.num_workers = 2;
    config.worker.cores = 4;
    config.worker.cpu_byte_rate = 100.0;  // 100 bytes/s per core.
    config.worker.network_concurrency = 2;
    config.worker.disk_bytes_per_sec = 50.0;
    config.worker.memory_bytes = 1000.0;
    cluster_ = std::make_unique<Cluster>(&sim_, config);
  }

  RunnableMonotask Cpu(double bytes, std::function<void()> done = nullptr) {
    RunnableMonotask mt = MakeTask(1, 0.0, 0.0, bytes);
    mt.type = ResourceType::kCpu;
    mt.on_complete = std::move(done);
    return mt;
  }

  Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(WorkerTest, CpuConcurrencyBoundedByCores) {
  Worker& worker = cluster_->worker(0);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    worker.Submit(Cpu(100.0, [&] { ++completed; }));  // 1 s each.
  }
  sim_.Run(1.5);
  EXPECT_EQ(completed, 4);  // First wave only.
  sim_.Run();
  EXPECT_EQ(completed, 8);
  EXPECT_NEAR(sim_.Now(), 2.0, 1e-9);
  // Busy-core integral: 4 cores for 2 seconds.
  EXPECT_NEAR(worker.cpu_busy_tracker().IntegralTo(2.0), 8.0, 1e-9);
}

TEST_F(WorkerTest, AptCpuZeroWithIdleCores) {
  Worker& worker = cluster_->worker(0);
  worker.Submit(Cpu(100.0));
  EXPECT_DOUBLE_EQ(worker.ApproxProcessingTime(ResourceType::kCpu), 0.0);
  for (int i = 0; i < 8; ++i) {
    worker.Submit(Cpu(100.0));
  }
  // All cores busy: APT reflects pending work / overall rate.
  EXPECT_GT(worker.ApproxProcessingTime(ResourceType::kCpu), 0.0);
}

TEST_F(WorkerTest, DiskSerializedPerDisk) {
  Worker& worker = cluster_->worker(0);
  double last = 0.0;
  for (int i = 0; i < 2; ++i) {
    RunnableMonotask mt = MakeTask(1, 0.0, 0.0, 50.0);
    mt.type = ResourceType::kDisk;
    mt.work = 50.0;  // 1 s at 50 B/s.
    mt.on_complete = [&] { last = sim_.Now(); };
    worker.Submit(std::move(mt));
  }
  sim_.Run();
  EXPECT_NEAR(last, 2.0, 1e-9);  // Serialized on the single disk.
}

TEST_F(WorkerTest, NetworkConcurrencyLimit) {
  Worker& worker = cluster_->worker(0);
  int completed = 0;
  const double downlink = cluster_->config().downlink_bytes_per_sec;
  for (int i = 0; i < 3; ++i) {
    RunnableMonotask mt = MakeTask(1, 0.0, 0.0, downlink);  // 1 s at full rate.
    mt.type = ResourceType::kNetwork;
    mt.pulls.push_back(RunnableMonotask::Pull{1, downlink});
    mt.on_complete = [&] { ++completed; };
    worker.Submit(std::move(mt));
  }
  // Concurrency 2: two transfers share the downlink (2 s), the third queues.
  sim_.Run(1.0);
  EXPECT_EQ(completed, 0);
  sim_.Run(2.5);
  EXPECT_EQ(completed, 2);
  sim_.Run();
  EXPECT_EQ(completed, 3);
}

TEST_F(WorkerTest, SmallTransfersBypassQueue) {
  Worker& worker = cluster_->worker(0);
  const double downlink = cluster_->config().downlink_bytes_per_sec;
  // Fill both network lanes with big transfers.
  for (int i = 0; i < 2; ++i) {
    RunnableMonotask mt = MakeTask(1, 0.0, 0.0, downlink * 10);
    mt.type = ResourceType::kNetwork;
    mt.pulls.push_back(RunnableMonotask::Pull{1, downlink * 10});
    worker.Submit(std::move(mt));
  }
  bool small_done = false;
  RunnableMonotask small = MakeTask(1, 0.0, 0.0, 1024.0);  // < 16 KB.
  small.type = ResourceType::kNetwork;
  small.pulls.push_back(RunnableMonotask::Pull{1, 1024.0});
  small.on_complete = [&] { small_done = true; };
  worker.Submit(std::move(small));
  sim_.Run(1.0);
  EXPECT_TRUE(small_done);  // Did not wait for the 10+ second transfers.
}

TEST_F(WorkerTest, MemoryAccounting) {
  Worker& worker = cluster_->worker(0);
  EXPECT_TRUE(worker.TryAllocateMemory(600.0));
  EXPECT_FALSE(worker.TryAllocateMemory(600.0));
  EXPECT_DOUBLE_EQ(worker.free_memory(), 400.0);
  worker.ReleaseMemory(600.0);
  EXPECT_DOUBLE_EQ(worker.free_memory(), 1000.0);
}

TEST_F(WorkerTest, RateMonitorAdjustsForComplexity) {
  Worker& worker = cluster_->worker(0);
  // Monotasks whose CPU work is 4x their input: the observed per-core rate
  // should drop toward 25 bytes/s (the paper's footnote-3 adjustment).
  for (int i = 0; i < 30; ++i) {
    RunnableMonotask mt = MakeTask(1, 0.0, 0.0, 100.0);
    mt.type = ResourceType::kCpu;
    mt.work = 400.0;
    worker.Submit(std::move(mt));
  }
  sim_.Run();
  // Overall rate = per-core rate x cores.
  EXPECT_NEAR(worker.ProcessingRate(ResourceType::kCpu), 25.0 * 4, 1.0);
}

TEST_F(WorkerTest, SpeedFactorAffectsInFlightMonotasks) {
  Worker& worker = cluster_->worker(0);
  double done_at = -1.0;
  worker.Submit(Cpu(100.0, [&] { done_at = sim_.Now(); }));  // 1 s at full speed.
  // Halfway through, the worker degrades to half speed: 50 bytes remain and
  // now take 1 s, so completion slips from t=1.0 to t=1.5.
  sim_.Schedule(0.5, [&] { worker.set_speed_factor(0.5); });
  sim_.Run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST_F(WorkerTest, SpeedFactorRestoreReschedulesRemainingWork) {
  Worker& worker = cluster_->worker(0);
  worker.set_speed_factor(0.25);
  double cpu_done = -1.0;
  double disk_done = -1.0;
  worker.Submit(Cpu(100.0, [&] { cpu_done = sim_.Now(); }));  // 4 s degraded.
  RunnableMonotask disk = MakeTask(1, 0.0, 0.0, 50.0);
  disk.type = ResourceType::kDisk;
  disk.work = 50.0;  // 1 s at 50 B/s, 4 s degraded.
  disk.on_complete = [&] { disk_done = sim_.Now(); };
  worker.Submit(std::move(disk));
  // Recover at t=2: both are half done, the remainder runs at full rate.
  sim_.Schedule(2.0, [&] { worker.set_speed_factor(1.0); });
  sim_.Run();
  EXPECT_NEAR(cpu_done, 2.5, 1e-9);   // 50 bytes left at 100 B/s.
  EXPECT_NEAR(disk_done, 2.5, 1e-9);  // 25 bytes left at 50 B/s.
}

TEST_F(WorkerTest, LocalPullsUseLocalCopyRate) {
  Worker& worker = cluster_->worker(0);
  bool done = false;
  RunnableMonotask mt = MakeTask(1, 0.0, 0.0, 1e9);
  mt.type = ResourceType::kNetwork;
  mt.pulls.push_back(RunnableMonotask::Pull{0, 1e9});  // Local partition.
  mt.on_complete = [&] { done = true; };
  worker.Submit(std::move(mt));
  sim_.Run(0.5);  // 1 GB at 8 GB/s local rate = 0.125 s.
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace ursa
