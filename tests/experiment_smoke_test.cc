// End-to-end smoke tests: small workloads must run to completion under every
// scheme, with sane metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/driver/experiment.h"
#include "src/workloads/ml.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

Workload SmallTpch(int jobs) {
  TpchWorkloadConfig config;
  config.num_jobs = jobs;
  config.submit_interval = 5.0;
  config.seed = 7;
  return MakeTpchWorkload(config);
}

TEST(ExperimentSmoke, UrsaEjfRunsSmallTpch) {
  const Workload workload = SmallTpch(6);
  const ExperimentResult result = RunExperiment(workload, UrsaEjfConfig(), "ursa-ejf");
  EXPECT_EQ(result.records.size(), 6u);
  for (const JobRecord& record : result.records) {
    EXPECT_GT(record.finish_time, record.submit_time) << record.name;
  }
  EXPECT_GT(result.makespan(), 0.0);
  EXPECT_GT(result.efficiency.ue_cpu, 50.0);
  EXPECT_LE(result.efficiency.ue_cpu, 100.0 + 1e-6);
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// SE/UE come from the trackers' running integrals, read at the last job's
// finish, so asking for a utilization series (which turns the change
// histories on) changes no bit of the report. With speculation, a
// cancelled copy's network gather still moves a worker's net_rx after the
// last finish; reading the integrals after the run would CHECK-fail.
TEST(ExperimentSmoke, EfficiencyIdenticalWithAndWithoutSeries) {
  TpchWorkloadConfig wc;
  wc.num_jobs = 40;
  wc.submit_interval = 5.0;
  wc.seed = 42;
  const Workload workload = MakeTpchWorkload(wc);
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 100;
  config.ursa.spec.enabled = true;
  const ExperimentResult plain = RunExperiment(workload, config, "ursa-ejf");
  config.sample_step = 1.0;
  const ExperimentResult sampled = RunExperiment(workload, config, "ursa-ejf");

  ASSERT_GT(plain.faults.speculations_launched, 0);
  const EfficiencyReport& a = plain.efficiency;
  const EfficiencyReport& b = sampled.efficiency;
  EXPECT_TRUE(BitEqual(a.makespan, b.makespan));
  EXPECT_TRUE(BitEqual(a.avg_jct, b.avg_jct));
  EXPECT_TRUE(BitEqual(a.ue_cpu, b.ue_cpu));
  EXPECT_TRUE(BitEqual(a.se_cpu, b.se_cpu));
  EXPECT_TRUE(BitEqual(a.ue_mem, b.ue_mem));
  EXPECT_TRUE(BitEqual(a.se_mem, b.se_mem));
  EXPECT_TRUE(BitEqual(a.cpu_imbalance, b.cpu_imbalance));
  EXPECT_TRUE(BitEqual(a.net_imbalance, b.net_imbalance));
  EXPECT_EQ(a.jobs, b.jobs);

  // Without a series no worker or flow-node tracker holds a change point.
  EXPECT_EQ(plain.tracker_history_points, 0u);
  EXPECT_TRUE(plain.series.cpu.empty());
  EXPECT_GT(sampled.tracker_history_points, 0u);
  EXPECT_EQ(sampled.series.cpu.size(), static_cast<size_t>(std::ceil(a.makespan)));
}

TEST(ExperimentSmoke, UrsaSrjfRunsSmallTpch) {
  const Workload workload = SmallTpch(6);
  const ExperimentResult result = RunExperiment(workload, UrsaSrjfConfig(), "ursa-srjf");
  EXPECT_EQ(result.records.size(), 6u);
}

TEST(ExperimentSmoke, SparkLikeRunsSmallTpch) {
  const Workload workload = SmallTpch(4);
  const ExperimentResult result = RunExperiment(workload, SparkLikeConfig(), "y+s");
  EXPECT_EQ(result.records.size(), 4u);
  // Executor model wastes allocated cores: UE strictly below Ursa's.
  EXPECT_LT(result.efficiency.ue_cpu, 95.0);
}

TEST(ExperimentSmoke, TezLikeRunsSmallTpch) {
  const Workload workload = SmallTpch(3);
  const ExperimentResult result = RunExperiment(workload, TezLikeConfig(), "y+t");
  EXPECT_EQ(result.records.size(), 3u);
}

TEST(ExperimentSmoke, MonoSparkRunsSmallTpch) {
  const Workload workload = SmallTpch(3);
  const ExperimentResult result = RunExperiment(workload, MonoSparkConfig(), "y+u");
  EXPECT_EQ(result.records.size(), 3u);
}

TEST(ExperimentSmoke, MlJobRunsAlone) {
  Workload workload;
  workload.name = "ml";
  WorkloadJob job;
  MlJobParams params = LrParams();
  params.iterations = 3;
  job.spec = BuildMlJob(params, 5);
  workload.jobs.push_back(std::move(job));
  const ExperimentResult result = RunExperiment(workload, UrsaEjfConfig(), "ursa-ejf");
  EXPECT_EQ(result.records.size(), 1u);
}

TEST(ExperimentSmoke, SyntheticJobHasExpectedSingleJobShape) {
  Workload workload;
  workload.name = "synthetic";
  WorkloadJob job;
  SyntheticJobParams params;
  params.type = 1;
  job.spec = BuildSyntheticJob(params, 3);
  workload.jobs.push_back(std::move(job));
  ExperimentConfig config = UrsaEjfConfig();
  config.sample_step = 0.5;
  const ExperimentResult result = RunExperiment(workload, config, "ursa-ejf");
  // Single Type 1 job: ~40 s JCT, CPU utilization well below full (phases).
  EXPECT_GT(result.records[0].jct(), 15.0);
  EXPECT_LT(result.records[0].jct(), 90.0);
}

TEST(ExperimentSmoke, PackingSchedulersRun) {
  const Workload workload = SmallTpch(4);
  for (PlacementAlgorithm alg : {PlacementAlgorithm::kTetris, PlacementAlgorithm::kTetris2,
                                 PlacementAlgorithm::kCapacity}) {
    ExperimentConfig config = UrsaEjfConfig();
    config.ursa.placement = alg;
    const ExperimentResult result =
        RunExperiment(workload, config, PlacementAlgorithmName(alg));
    EXPECT_EQ(result.records.size(), 4u) << PlacementAlgorithmName(alg);
  }
}

}  // namespace
}  // namespace ursa
