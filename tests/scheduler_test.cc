// Tests for the Ursa scheduler: memory-gated admission, Algorithm 1
// placement behaviour (load balancing, blocked-resource avoidance, stage
// bonus), job ordering policies, and the packing-placement variants.
#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

std::unique_ptr<Job> SimpleJob(JobId id, int tasks, double part_bytes, double memory,
                               uint64_t seed = 1) {
  JobSpec spec;
  spec.name = "job" + std::to_string(id);
  spec.declared_memory_bytes = memory;
  spec.seed = seed;
  OpGraph& graph = spec.graph;
  const DataId input = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(tasks), part_bytes), "in");
  const DataId out = graph.CreateData(tasks, "out");
  graph.CreateOp(ResourceType::kCpu, "work").Read(input).Create(out);
  return Job::Create(id, std::move(spec));
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    config_.num_workers = 4;
    config_.worker.cores = 4;
    config_.worker.cpu_byte_rate = 1000.0;
    config_.worker.memory_bytes = 1000.0 * 1024 * 1024;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(SchedulerTest, AdmissionGatedByClusterMemory) {
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  const double total = cluster_->total_memory();
  // First job reserves 80% of memory; second (60%) must wait.
  scheduler.SubmitJob(SimpleJob(0, 4, 1000.0, total * 0.8));
  scheduler.SubmitJob(SimpleJob(1, 4, 1000.0, total * 0.6));
  sim_.Run(1.0);
  EXPECT_GE(scheduler.job_records()[0].admit_time, 0.0);
  EXPECT_LT(scheduler.job_records()[1].admit_time, 0.0);  // Still queued.
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // Job 1 admitted only after job 0 finished and released its reservation.
  EXPECT_GE(scheduler.job_records()[1].admit_time,
            scheduler.job_records()[0].finish_time);
}

TEST_F(SchedulerTest, SpreadsTasksAcrossWorkers) {
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  // 16 equal tasks on 4 workers x 4 cores: every worker should get work.
  scheduler.SubmitJob(SimpleJob(0, 16, 2000.0, 1e9));
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  for (int w = 0; w < cluster_->size(); ++w) {
    EXPECT_GT(cluster_->worker(w).completed(ResourceType::kCpu), 0)
        << "worker " << w << " got no monotasks";
  }
}

TEST_F(SchedulerTest, EjfPrioritizesEarlierJob) {
  UrsaSchedulerConfig sc;
  sc.policy = OrderingPolicy::kEjf;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  // Saturating first job, then a later identical one: EJF must finish the
  // earlier job first.
  scheduler.SubmitJob(SimpleJob(0, 64, 4000.0, 1e9, 11));
  sim_.ScheduleAt(0.1, [&] { scheduler.SubmitJob(SimpleJob(1, 64, 4000.0, 1e9, 12)); });
  sim_.Run();
  EXPECT_LT(scheduler.job_records()[0].finish_time, scheduler.job_records()[1].finish_time);
}

TEST_F(SchedulerTest, SrjfPrioritizesSmallJob) {
  UrsaSchedulerConfig sc;
  sc.policy = OrderingPolicy::kSrjf;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  // A big job submitted first, a tiny one submitted just after: SRJF should
  // complete the tiny job well before the big one.
  scheduler.SubmitJob(SimpleJob(0, 64, 50000.0, 1e9, 21));
  sim_.ScheduleAt(0.1, [&] { scheduler.SubmitJob(SimpleJob(1, 4, 1000.0, 1e9, 22)); });
  sim_.Run();
  EXPECT_LT(scheduler.job_records()[1].finish_time,
            scheduler.job_records()[0].finish_time * 0.8);
}

TEST_F(SchedulerTest, PackingReservationsReleaseOnTaskCompletion) {
  UrsaSchedulerConfig sc;
  sc.placement = PlacementAlgorithm::kTetris;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  scheduler.SubmitJob(SimpleJob(0, 8, 2000.0, 1e9));
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  // All memory and reservations returned.
  for (int w = 0; w < cluster_->size(); ++w) {
    EXPECT_DOUBLE_EQ(cluster_->worker(w).free_memory(),
                     cluster_->worker(w).memory_capacity());
  }
}

TEST_F(SchedulerTest, TruncationCountsJobWithUngatheredStages) {
  UrsaSchedulerConfig sc;
  // Smaller than the first stage's 4 tasks x 4 workers, so the gather stops
  // after one stage and the job's second ready stage waits for the next tick.
  sc.max_scored_pairs_per_tick = 8;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  Tracer tracer;
  scheduler.set_tracer(&tracer);
  JobSpec spec;
  spec.name = "two-stages";
  spec.declared_memory_bytes = 1e9;
  OpGraph& graph = spec.graph;
  for (const char* name : {"a", "b"}) {
    const DataId input = graph.CreateExternalData(std::vector<double>(4, 1000.0), name);
    graph.CreateOp(ResourceType::kCpu, name).Read(input).Create(graph.CreateData(4, name));
  }
  scheduler.SubmitJob(Job::Create(0, std::move(spec)));
  sim_.Run(sc.scheduling_interval);
  std::vector<double> deferred;
  for (const TraceEvent& event : tracer.Snapshot()) {
    if (event.kind == TraceEventKind::kScoringTruncated) {
      deferred.push_back(event.b);
    }
  }
  ASSERT_EQ(deferred.size(), 1u);
  EXPECT_EQ(deferred[0], 1.0);
  EXPECT_EQ(scheduler.scheduler_counters().scoring_truncated, 1);
}

TEST_F(SchedulerTest, BudgetCrossedWithNothingDeferredIsNotATruncation) {
  UrsaSchedulerConfig sc;
  // The only ready stage (4 tasks x 4 workers = 16 pairs) crosses the budget
  // but is still gathered, and nothing else is ready: nothing is deferred,
  // so there is no truncation to count, log or trace.
  sc.max_scored_pairs_per_tick = 8;
  UrsaScheduler scheduler(&sim_, cluster_.get(), sc);
  Tracer tracer;
  scheduler.set_tracer(&tracer);
  scheduler.SubmitJob(SimpleJob(0, 4, 1000.0, 1e9));
  sim_.Run();
  EXPECT_TRUE(scheduler.AllJobsFinished());
  for (const TraceEvent& event : tracer.Snapshot()) {
    EXPECT_NE(event.kind, TraceEventKind::kScoringTruncated);
  }
  EXPECT_EQ(scheduler.scheduler_counters().scoring_truncated, 0);
}

TEST(SrjfRank, SmallerRemainingRanksFirst) {
  std::array<double, kNumMonotaskResources> big = {100.0, 50.0, 0.0};
  std::array<double, kNumMonotaskResources> small = {10.0, 5.0, 0.0};
  std::array<double, kNumMonotaskResources> load = {110.0, 55.0, 0.0};
  EXPECT_LT(SrjfRank(small, load), SrjfRank(big, load));
}

TEST(SrjfRank, ZeroLoadResourceIgnored) {
  std::array<double, kNumMonotaskResources> r = {10.0, 10.0, 10.0};
  std::array<double, kNumMonotaskResources> load = {100.0, 0.0, 0.0};
  // Only the CPU dimension contributes: (2 - 0.1) * 0.1.
  EXPECT_NEAR(SrjfRank(r, load), 0.19, 1e-9);
}

TEST(SrjfRank, HeavilyDemandedResourceWeighsMore) {
  // Two jobs with equal total remaining work; the one whose work sits on the
  // contended resource ranks later (more remaining relative weight).
  std::array<double, kNumMonotaskResources> on_hot = {50.0, 0.0, 0.0};
  std::array<double, kNumMonotaskResources> on_cold = {0.0, 50.0, 0.0};
  std::array<double, kNumMonotaskResources> load = {1000.0, 60.0, 0.0};
  // on_cold dominates its (small) resource pool -> higher rank value.
  EXPECT_GT(SrjfRank(on_cold, load), SrjfRank(on_hot, load));
}

TEST(PlacementPriorityBonus, EjfGrowsWithWaitTime) {
  EXPECT_GT(PlacementPriorityBonus(OrderingPolicy::kEjf, 1.0, 100.0, 0.0),
            PlacementPriorityBonus(OrderingPolicy::kEjf, 1.0, 10.0, 0.0));
}

TEST(PlacementPriorityBonus, SrjfInverseInRank) {
  EXPECT_GT(PlacementPriorityBonus(OrderingPolicy::kSrjf, 1.0, 0.0, 0.1),
            PlacementPriorityBonus(OrderingPolicy::kSrjf, 1.0, 0.0, 1.0));
}

}  // namespace
}  // namespace ursa
