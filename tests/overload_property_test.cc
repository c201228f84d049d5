// Property tests for overload robustness (DESIGN.md section 11): open-loop
// arrivals through the admission controller under chaos. Invariants checked
// across seeds: the pending queue stays bounded, every arrival resolves to
// exactly one of completed/shed (conservation), the occupancy ledger never
// over-commits memory during overload with a worker fail/rejoin in flight,
// and whole runs are seed-deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/driver/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/openloop.h"

namespace ursa {
namespace {

constexpr int kMaxPending = 8;
constexpr int kArrivals = 40;

// A small cluster driven well past saturation: ~6x the arrival rate the
// cluster can serve, so shedding and backpressure genuinely engage.
ExperimentConfig MakeOverloadConfig(uint64_t seed) {
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 4;
  config.cluster.worker.cores = 8;
  config.cluster.worker.cpu_byte_rate = 100e6;

  config.ursa.admission.enabled = true;
  config.ursa.admission.max_pending = kMaxPending;
  config.ursa.admission.default_slo = 15.0;
  config.ursa.admission.utilization_bound = 1.0;
  config.ursa.admission.max_throttle_factor = 2.0;

  config.open_loop.enabled = true;
  config.open_loop.seed = seed;
  config.open_loop.arrival_rate = 6.0;
  config.open_loop.max_jobs = kArrivals;
  // Each job needs ~2.5s of the whole cluster (u ~ 0.2-0.5 against its
  // SLO), so the tight utilization bound keeps only a few active at once
  // and the 6/s arrival stream overflows the pending queue.
  config.open_loop.job_template.stages = 2;
  config.open_loop.job_template.parallelism = 32;
  config.open_loop.job_template.type1_task_bytes = 32.0 * 1024 * 1024;
  config.open_loop.job_template.complexity = 8.0;
  std::string error;
  EXPECT_TRUE(ParseTenantSpecs("interactive:2:0:10,batch:1:1:30,scavenger:1:2:0",
                               &config.open_loop.tenants, &error))
      << error;

  // Chaos riding along: one crash + rejoin and one straggler window.
  FaultEvent crash;
  crash.kind = FaultKind::kCrashRecover;
  crash.time = 2.0;
  crash.worker = 1;
  crash.downtime = 4.0;
  config.fault_plan.events.push_back(crash);
  FaultEvent degrade;
  degrade.kind = FaultKind::kDegrade;
  degrade.time = 1.0;
  degrade.worker = 2;
  degrade.factor = 0.5;
  degrade.duration = 8.0;
  config.fault_plan.events.push_back(degrade);
  return config;
}

class OverloadInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverloadInvariants, BoundedQueueAndConservationUnderChaos) {
  const uint64_t seed = GetParam();
  const ExperimentResult result =
      RunExperiment(Workload{}, MakeOverloadConfig(seed), "overload");
  const AdmissionCounters& c = result.admission;

  // Every arrival was offered to the controller and resolved by the end of
  // the run: nothing is left pending, and submitted splits exactly into
  // admitted (ran) and shed (never ran).
  EXPECT_EQ(result.submitted, kArrivals) << "seed " << seed;
  EXPECT_EQ(static_cast<int>(result.records.size()), kArrivals);
  EXPECT_EQ(c.submitted, kArrivals);
  EXPECT_EQ(c.pending_now, 0);
  EXPECT_EQ(c.submitted, c.admitted + c.shed + c.pending_now) << "seed " << seed;
  // Accepted jobs leave the pending queue only by activation or eviction.
  EXPECT_EQ(c.accepted, c.admitted + c.evictions) << "seed " << seed;

  // The pending queue never outgrew its bound, and overload at 6x
  // saturation actually shed load instead of queueing without bound.
  EXPECT_LE(c.max_pending_depth, kMaxPending) << "seed " << seed;
  EXPECT_GT(c.shed, 0) << "seed " << seed;

  // Per-record conservation: completed XOR shed, and a coherent timeline.
  int completed = 0;
  int shed = 0;
  for (const JobRecord& record : result.records) {
    EXPECT_NE(record.completed(), record.shed) << record.name;
    if (record.completed()) {
      ++completed;
      EXPECT_GE(record.finish_time, record.submit_time) << record.name;
    } else {
      ++shed;
      EXPECT_GE(record.shed_time, record.submit_time) << record.name;
    }
  }
  EXPECT_EQ(completed + shed, kArrivals);
  EXPECT_EQ(static_cast<int64_t>(shed), c.shed);
  EXPECT_EQ(result.tenants.total_completed, completed);
  EXPECT_EQ(result.tenants.total_shed, shed);

  // Tenant accounting adds up and fairness stays a valid Jain index.
  int tenant_submitted = 0;
  for (const MetricsCollector::TenantStats& tenant : result.tenants.tenants) {
    EXPECT_EQ(tenant.submitted, tenant.completed + tenant.shed) << tenant.tenant;
    tenant_submitted += tenant.submitted;
  }
  EXPECT_EQ(tenant_submitted, kArrivals);
  EXPECT_GT(result.tenants.jain_fairness, 0.0);
  EXPECT_LE(result.tenants.jain_fairness, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadInvariants, ::testing::Range<uint64_t>(1, 4));

TEST(OverloadDeterminism, IdenticalSeedsProduceIdenticalRuns) {
  const ExperimentResult a = RunExperiment(Workload{}, MakeOverloadConfig(11), "a");
  const ExperimentResult b = RunExperiment(Workload{}, MakeOverloadConfig(11), "b");
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  EXPECT_EQ(a.admission.admitted, b.admission.admitted);
  EXPECT_EQ(a.admission.shed, b.admission.shed);
  EXPECT_EQ(a.admission.evictions, b.admission.evictions);
  EXPECT_EQ(a.admission.deferrals, b.admission.deferrals);
  EXPECT_EQ(a.admission.level_changes, b.admission.level_changes);
  EXPECT_EQ(a.admission.max_pending_depth, b.admission.max_pending_depth);
  EXPECT_DOUBLE_EQ(a.admission.total_admission_latency,
                   b.admission.total_admission_latency);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].name, b.records[i].name);
    EXPECT_EQ(a.records[i].tenant, b.records[i].tenant);
    EXPECT_EQ(a.records[i].shed, b.records[i].shed);
    EXPECT_DOUBLE_EQ(a.records[i].submit_time, b.records[i].submit_time);
    EXPECT_DOUBLE_EQ(a.records[i].finish_time, b.records[i].finish_time);
  }
  EXPECT_DOUBLE_EQ(a.tenants.jain_fairness, b.tenants.jain_fairness);
}

// Direct scheduler drive: an overloaded submission burst with a worker
// failing and rejoining mid-flight, sampling the occupancy ledger the whole
// time. The ledger must never over-commit a worker's memory (1-byte
// float slack, matching Worker::TryAllocateMemory).
TEST(OverloadLedger, NeverOvercommitsDuringOverloadAndRejoin) {
  Simulator sim;
  ClusterConfig cc;
  cc.num_workers = 4;
  cc.worker.cores = 8;
  cc.worker.cpu_byte_rate = 100e6;
  Cluster cluster(&sim, cc);

  UrsaSchedulerConfig sc;
  sc.admission.enabled = true;
  sc.admission.max_pending = 6;
  sc.admission.default_slo = 15.0;
  sc.admission.utilization_bound = 1.5;
  UrsaScheduler scheduler(&sim, &cluster, sc);

  OpenLoopConfig oc;
  oc.seed = 5;
  oc.max_jobs = 24;
  oc.job_template.stages = 2;
  oc.job_template.parallelism = 16;
  oc.job_template.type1_task_bytes = 16.0 * 1024 * 1024;
  oc.job_template.complexity = 4.0;
  std::string error;
  ASSERT_TRUE(ParseTenantSpecs("interactive:2:0:10,batch:1:1:30", &oc.tenants, &error))
      << error;
  OpenLoopSource source(oc);
  for (int i = 0; i < oc.max_jobs; ++i) {
    const JobSpec spec = source.NextJob();
    // A burst far above what 4 workers serve, so admission stays saturated.
    sim.ScheduleAt(0.15 * (i + 1), [&scheduler, spec, i] {
      scheduler.SubmitJob(Job::Create(static_cast<JobId>(i), spec));
    });
  }
  sim.ScheduleAt(1.5, [&] { EXPECT_GE(scheduler.FailWorker(1), 0); });
  sim.ScheduleAt(5.0, [&] { cluster.worker(1).Recover(); });

  const auto check_ledger = [&] {
    for (int w = 0; w < cluster.size(); ++w) {
      const Worker& worker = cluster.worker(w);
      EXPECT_GE(worker.free_memory(), -1.0)
          << "worker " << w << " over-committed at t=" << sim.Now();
    }
  };
  for (int i = 1; i <= 120; ++i) {
    sim.ScheduleAt(0.5 * i, check_ledger);
  }
  sim.Run();

  EXPECT_TRUE(scheduler.AllJobsFinished());
  EXPECT_EQ(scheduler.finished_jobs() + scheduler.shed_jobs(), oc.max_jobs);
  const AdmissionCounters c = scheduler.admission_counters();
  EXPECT_EQ(c.submitted, c.admitted + c.shed + c.pending_now);
  EXPECT_EQ(c.pending_now, 0);
  check_ledger();
  // Drained: healthy workers end with clean memory books.
  for (int w = 0; w < cluster.size(); ++w) {
    const Worker& worker = cluster.worker(w);
    if (!worker.failed()) {
      EXPECT_NEAR(worker.free_memory(), worker.memory_capacity(), 1.0) << "worker " << w;
    }
  }
}

}  // namespace
}  // namespace ursa
