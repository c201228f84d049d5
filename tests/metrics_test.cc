// Tests for the SE/UE/makespan/straggler metrics (section 5 definitions).
#include <gtest/gtest.h>

#include <cmath>

#include "src/metrics/metrics.h"

namespace ursa {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() {
    config_.num_workers = 2;
    config_.worker.cores = 10;
    config_.worker.memory_bytes = 100.0;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(MetricsTest, SeUeFromTrackerIntegrals) {
  // Worker 0: 5 cores allocated and busy for the whole 10 s window.
  // Worker 1: 10 cores allocated, 2 busy.
  Worker& w0 = cluster_->worker(0);
  Worker& w1 = cluster_->worker(1);
  w0.AddCpuAllocated(5.0);
  w0.AddCpuBusy(5.0);
  w1.AddCpuAllocated(10.0);
  w1.AddCpuBusy(2.0);
  sim_.Schedule(10.0, [] {});
  sim_.Run();

  std::vector<JobRecord> jobs(2);
  jobs[0].submit_time = 0.0;
  jobs[0].finish_time = 4.0;
  jobs[1].submit_time = 2.0;
  jobs[1].finish_time = 10.0;
  const EfficiencyReport report = MetricsCollector::Compute(*cluster_, jobs, 10.0);
  EXPECT_DOUBLE_EQ(report.makespan, 10.0);
  EXPECT_DOUBLE_EQ(report.avg_jct, (4.0 + 8.0) / 2.0);
  // SE = allocated / total = 15/20; UE = busy / allocated = 7/15.
  EXPECT_NEAR(report.se_cpu, 100.0 * 15.0 / 20.0, 1e-9);
  EXPECT_NEAR(report.ue_cpu, 100.0 * 7.0 / 15.0, 1e-9);
  // Worker CPU utilizations 50% and 20%: mean absolute deviation 15.
  EXPECT_NEAR(report.cpu_imbalance, 15.0, 1e-9);
}

TEST_F(MetricsTest, SampleNormalizesByCapacity) {
  cluster_->KeepTrackerHistories();
  cluster_->worker(0).AddCpuBusy(10.0);  // Full.
  sim_.Schedule(4.0, [] {});
  sim_.Run();
  const auto series = MetricsCollector::Sample(*cluster_, 0.0, 4.0, 1.0);
  ASSERT_EQ(series.cpu.size(), 4u);
  // 10 of 20 cluster cores busy = 50%.
  EXPECT_NEAR(series.cpu[0], 50.0, 1e-9);
}

TEST_F(MetricsTest, SampleGuardsDegenerateCapacity) {
  // A cluster whose network capacity has been overridden to zero (e.g. a
  // heterogeneous-cluster experiment that disables some links) must sample to
  // 0% utilization, not divide by zero into NaNs.
  cluster_->KeepTrackerHistories();
  for (int w = 0; w < cluster_->size(); ++w) {
    cluster_->net().SetDownlink(w, 0.0);
  }
  cluster_->worker(0).AddCpuBusy(10.0);
  sim_.Schedule(4.0, [] {});
  sim_.Run();
  const auto series = MetricsCollector::Sample(*cluster_, 0.0, 4.0, 1.0);
  ASSERT_EQ(series.net.size(), 4u);
  for (size_t i = 0; i < series.net.size(); ++i) {
    EXPECT_TRUE(std::isfinite(series.net[i])) << "net[" << i << "]";
    EXPECT_DOUBLE_EQ(series.net[i], 0.0);
    EXPECT_TRUE(std::isfinite(series.cpu[i]));
    EXPECT_TRUE(std::isfinite(series.mem[i]));
  }
  EXPECT_NEAR(series.cpu[0], 50.0, 1e-9);  // CPU sampling unaffected.

  // The degenerate t1 <= t0 window returns empty series, not a crash.
  const auto empty = MetricsCollector::Sample(*cluster_, 4.0, 4.0, 1.0);
  EXPECT_TRUE(empty.cpu.empty());
}

TEST(StragglerRatio, ZeroWithoutOutliers) {
  std::vector<std::vector<std::vector<double>>> jobs = {
      {{1.0, 1.1, 0.9, 1.0, 1.05, 0.95}}};
  EXPECT_DOUBLE_EQ(MetricsCollector::StragglerTimeRatio(jobs, {10.0}), 0.0);
}

TEST(StragglerRatio, DetectsLateTask) {
  // One stage where the last task finishes way past Q3 + 1.5 IQR.
  std::vector<double> stage;
  for (int i = 0; i < 20; ++i) {
    stage.push_back(10.0 + 0.1 * i);
  }
  stage.push_back(30.0);
  std::vector<std::vector<std::vector<double>>> jobs = {{stage}};
  const double ratio = MetricsCollector::StragglerTimeRatio(jobs, {100.0});
  EXPECT_GT(ratio, 10.0);  // (30 - ~13) / 100 ~= 17%.
  EXPECT_LT(ratio, 25.0);
}

TEST(StragglerRatio, TinyStagesIgnored) {
  std::vector<std::vector<std::vector<double>>> jobs = {{{1.0, 100.0}}};
  EXPECT_DOUBLE_EQ(MetricsCollector::StragglerTimeRatio(jobs, {10.0}), 0.0);
}

}  // namespace
}  // namespace ursa
