// Tests for the Ursa scheduler: memory-gated admission, Algorithm 1
// placement behaviour (load balancing, blocked-resource avoidance, stage
// bonus), job ordering policies, and the packing-placement variants.
#include <bit>
#include <cstring>
#include <random>

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/scheduler/load_table.h"
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

TEST(SchedulerPlacementTest, EveryReadyStageIsPlacedAtTheFirstTick) {
  // A 2,100-task stage on 1,000 workers is 2.1M (task, worker) pairs. Each
  // tick scores every ready stage of every admitted job, so a second job
  // submitted at the same instant is placed at the first tick too.
  Simulator sim;
  ClusterConfig cc;
  cc.num_workers = 1000;
  Cluster cluster(&sim, cc);
  UrsaSchedulerConfig sc;
  UrsaScheduler scheduler(&sim, &cluster, sc);
  Tracer tracer;
  scheduler.set_tracer(&tracer);
  scheduler.SubmitJob(SimpleJob(0, 2100, 1e6, 1e9));
  scheduler.SubmitJob(SimpleJob(1, 4, 1e6, 1e9));
  sim.Run(sc.scheduling_interval);
  int placed[2] = {0, 0};
  for (const TraceEvent& event : tracer.Snapshot()) {
    if (event.kind == TraceEventKind::kTaskPlaced) {
      EXPECT_EQ(event.t, sc.scheduling_interval);
      ++placed[event.job];
    }
  }
  EXPECT_GT(placed[0], 0);
  EXPECT_GT(placed[1], 0);
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

// Random loads whose fields come from a small pool, so pairs often share
// long prefixes and differ late, in one byte, or only in the sign of zero.
WorkerLoad RandomLoad(std::mt19937_64& rng) {
  const double pool[] = {0.0, -0.0, 1.0, 0.5, 0.25, 1e-300, 3.0e9, -1.0};
  double fields[kLoadWords];
  for (double& field : fields) {
    const uint64_t pick = rng() % 10;
    if (pick < 8) {
      field = pool[pick];
    } else {
      const uint64_t bits = pick == 8 ? rng() : std::bit_cast<uint64_t>(1.0) ^ (rng() % 256);
      std::memcpy(&field, &bits, sizeof(field));
    }
  }
  WorkerLoad load;
  std::memcpy(&load, fields, sizeof(load));
  return load;
}

int Sign(int v) { return (v > 0) - (v < 0); }

TEST(LoadWords, ComparisonAndEqualityMatchMemcmp) {
  std::mt19937_64 rng(20240531);
  std::vector<WorkerLoad> loads;
  for (int i = 0; i < 400; ++i) {
    loads.push_back(RandomLoad(rng));
  }
  for (const WorkerLoad& a : loads) {
    for (const WorkerLoad& b : loads) {
      const int bytes = std::memcmp(&a, &b, sizeof(WorkerLoad));
      ASSERT_EQ(Sign(CompareLoads(a, b)), Sign(bytes));
      ASSERT_EQ(SameLoad(a, b), bytes == 0);
      if (bytes == 0) {
        ASSERT_EQ(HashLoad(a), HashLoad(b));
      }
    }
  }
  // Equality is bitwise: 0.0 == -0.0 as doubles, but not as loads.
  WorkerLoad plus;
  WorkerLoad minus;
  minus.apt[1] = -0.0;
  EXPECT_FALSE(SameLoad(plus, minus));
  EXPECT_EQ(Sign(CompareLoads(plus, minus)),
            Sign(std::memcmp(&plus, &minus, sizeof(WorkerLoad))));
  EXPECT_NE(CompareLoads(plus, minus), 0);
}

TEST(LoadTable, GrowsErasesAndReinterns) {
  std::vector<WorkerLoad> loads(1000);
  for (size_t i = 0; i < loads.size(); ++i) {
    loads[i].d[0] = static_cast<double>(i);
    loads[i].rate[2] = static_cast<double>(i % 7);
  }
  LoadTable table;
  bool added = false;
  for (size_t i = 0; i < loads.size(); ++i) {
    ASSERT_EQ(table.Intern(loads[i], &added), static_cast<int32_t>(i));
    ASSERT_TRUE(added);
  }
  EXPECT_EQ(table.size(), 1000);
  // Grown from 16 slots, rehashing each time: every load keeps its id.
  for (size_t i = 0; i < loads.size(); ++i) {
    ASSERT_EQ(table.Intern(loads[i], &added), static_cast<int32_t>(i));
    ASSERT_FALSE(added);
  }
  // Erase every third load: the backward shift must keep the rest findable.
  for (size_t i = 0; i < loads.size(); i += 3) {
    table.Erase(static_cast<int32_t>(i));
  }
  for (size_t i = 0; i < loads.size(); ++i) {
    if (i % 3 != 0) {
      ASSERT_EQ(table.Intern(loads[i], &added), static_cast<int32_t>(i));
      ASSERT_FALSE(added);
    }
  }
  // Erased loads come back under recycled ids, each holding its load.
  for (size_t i = 0; i < loads.size(); i += 3) {
    const int32_t id = table.Intern(loads[i], &added);
    ASSERT_TRUE(added);
    ASSERT_LT(id, 1000);
    ASSERT_TRUE(SameLoad(table.load(id), loads[i]));
    ASSERT_EQ(table.Intern(loads[i], &added), id);
    ASSERT_FALSE(added);
  }
  EXPECT_EQ(table.id_limit(), 1000);
  EXPECT_EQ(table.size(), 1000);
  // A cleared table starts again from id 0, and a -0.0 load is a new key.
  table.Clear();
  EXPECT_EQ(table.size(), 0);
  WorkerLoad minus;
  minus.d[0] = -0.0;
  EXPECT_EQ(table.Intern(loads[0], &added), 0);
  EXPECT_EQ(table.Intern(minus, &added), 1);
  EXPECT_TRUE(added);
}

}  // namespace
}  // namespace ursa
