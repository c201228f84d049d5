// Simulation digests: a standing set of small seeded runs, each reduced to
// one line with a 64-bit FNV-1a hash over the bit patterns of what the
// simulation decided:
//   - every job's submit and finish times;
//   - the UE/SE doubles of the efficiency report;
//   - events fired and tasks placed;
//   - the fault, control-plane and speculation counters.
// Host-work counters (scan entries, load refreshes, BestWorker calls) stay
// out, so an exact performance refactor leaves every line alone. The lines
// are compared with the committed golden file:
//
//   tests/golden/sim_digests.golden
//
// The same runs also write those host-work counters, unhashed, to a second
// golden, the deterministic scan gate: an exact change to the placement
// index must leave both files alone.
//
//   tests/golden/scan_counts.golden
//
// A change that moves simulated output regenerates it in its own commit and
// names the moved configs:
//
//   URSA_REGEN_GOLDEN=1 ./tests/sim_digest_test
//
// On a mismatch the test prints every config's line, so a run on another
// compiler names all the configs that drifted. Such drift (FP contraction,
// libm, unstable-sort ties) is fixed in the source; goldens are never keyed
// per compiler.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/driver/experiment.h"
#include "src/obs/trace.h"
#include "src/workloads/mixed.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpcds.h"
#include "src/workloads/tpch.h"
#include "tests/golden_util.h"

namespace ursa {
namespace {

constexpr char kGoldenPath[] = URSA_SOURCE_DIR "/tests/golden/sim_digests.golden";
constexpr char kScanGoldenPath[] = URSA_SOURCE_DIR "/tests/golden/scan_counts.golden";

struct DigestCase {
  std::string name;
  Workload workload;
  ExperimentConfig config;
};

Workload Tpch(int jobs) {
  TpchWorkloadConfig wc;
  wc.num_jobs = jobs;
  return MakeTpchWorkload(wc);
}

Workload Tpcds(int jobs) {
  TpcdsWorkloadConfig wc;
  wc.num_jobs = jobs;
  wc.seed = 42;
  return MakeTpcdsWorkload(wc);
}

// The chaos plan ursa_sim builds from its --fault-* and --sched-* flags.
FaultPlan Faults(uint64_t seed, int workers, double horizon, int crashes, int recovers,
                 int transients, int degrades, int sched_crashes = 0) {
  FaultPlanConfig pc;
  pc.seed = seed;
  pc.num_workers = workers;
  pc.horizon_end = horizon;
  pc.crashes = crashes;
  pc.crash_recovers = recovers;
  pc.transients = transients;
  pc.degrades = degrades;
  pc.sched_crash_recovers = sched_crashes;
  pc.min_sched_downtime = 5.0;
  pc.max_sched_downtime = 5.0;
  return MakeRandomFaultPlan(pc);
}

// A lossy message layer as ursa_sim's --msg-* flags configure it.
void LossyCtrl(ExperimentConfig* config, uint64_t seed, double delay) {
  config->ursa.ctrl.enabled = true;
  config->ursa.ctrl.seed = seed;
  config->ursa.ctrl.loss_prob = 0.02;
  config->ursa.ctrl.dup_prob = 0.02;
  config->ursa.ctrl.delay_prob = delay;
}

// Each case names the ursa_sim command that runs the same simulation
// (--seed=42, 20 workers and --interval=5 are ursa_sim's defaults).
std::vector<DigestCase> MakeCases() {
  std::vector<DigestCase> cases;
  // --workload=tpch --jobs=20
  cases.push_back({"tpch", Tpch(20), UrsaEjfConfig()});
  // --workload=tpcds --jobs=10 (ursa_sim passes its --seed to TPC-DS too)
  cases.push_back({"tpcds", Tpcds(10), UrsaEjfConfig()});
  {
    // --workload=mixed
    MixedWorkloadConfig wc;
    wc.seed = 42;
    cases.push_back({"mixed", MakeMixedWorkload(wc), UrsaEjfConfig()});
  }
  {
    // --workload=tpch --jobs=20 --fault-crashes=1 --fault-recovers=1
    //   --fault-transients=5 --fault-degrades=2 --fault-seed=9 --fault-horizon=60
    DigestCase c{"chaos", Tpch(20), UrsaEjfConfig()};
    c.config.fault_plan = Faults(9, 20, 60.0, 1, 1, 5, 2);
    cases.push_back(c);
  }
  {
    // --workload=tpch --jobs=20 --spec --fault-degrades=3 --fault-seed=3
    //   --fault-horizon=60
    DigestCase c{"spec", Tpch(20), UrsaEjfConfig()};
    c.config.ursa.spec.enabled = true;
    c.config.fault_plan = Faults(3, 20, 60.0, 0, 0, 0, 3);
    cases.push_back(c);
  }
  {
    // As "spec" plus --fault-transients=10.
    DigestCase c{"spec-transients", Tpch(20), UrsaEjfConfig()};
    c.config.ursa.spec.enabled = true;
    c.config.fault_plan = Faults(3, 20, 60.0, 0, 0, 10, 3);
    cases.push_back(c);
  }
  {
    // --workload=tpch --jobs=20 --no-lineage --fault-crashes=2
    //   --fault-recovers=1 --fault-seed=5 --fault-horizon=60
    DigestCase c{"no-lineage-kills", Tpch(20), UrsaEjfConfig()};
    c.config.ursa.fault.enable_lineage_recovery = false;
    c.config.fault_plan = Faults(5, 20, 60.0, 2, 1, 0, 0);
    cases.push_back(c);
  }
  {
    // --workload=tpch --jobs=20 --ctrl --msg-loss=0.02 --msg-dup=0.02
    DigestCase c{"ctrl-loss-dup", Tpch(20), UrsaEjfConfig()};
    LossyCtrl(&c.config, 1, 0.0);
    cases.push_back(c);
  }
  {
    // --workload=tpch --jobs=20 --sched-crash=1 --sched-downtime=5
    //   --msg-loss=0.02 --msg-dup=0.02 --msg-delay=0.05
    //   --checkpoint-interval=5 --fault-seed=9
    DigestCase c{"sched-crash-journal", Tpch(20), UrsaEjfConfig()};
    LossyCtrl(&c.config, 9, 0.05);
    c.config.ursa.ctrl.checkpoint_interval = 5.0;
    c.config.fault_plan = Faults(9, 20, 100.0, 0, 0, 0, 0, 1);
    cases.push_back(c);
  }
  // --workload=tpch --jobs=20 --scheduler=ursa-graphene
  cases.push_back({"graphene", Tpch(20), UrsaOrderingConfig(OrderingPolicy::kGraphene)});
  // --workload=tpch --jobs=20 --scheduler=y+s
  cases.push_back({"y+s", Tpch(20), SparkLikeConfig()});
  // --workload=tpch --jobs=20 --scheduler=y+u
  cases.push_back({"y+u", Tpch(20), MonoSparkConfig()});
  {
    // --open-loop --admission --jobs=20 --arrival-rate=2 --max-pending=2
    //   --tenants=interactive:2:0:20,batch:1:1:600
    DigestCase c{"open-loop-admission", Workload{}, UrsaEjfConfig()};
    c.workload.name = "openloop";
    c.config.open_loop.enabled = true;
    c.config.open_loop.seed = 42;
    c.config.open_loop.arrival_rate = 2.0;
    c.config.open_loop.max_jobs = 20;
    std::string error;
    EXPECT_TRUE(ParseTenantSpecs("interactive:2:0:20,batch:1:1:600",
                                 &c.config.open_loop.tenants, &error))
        << error;
    c.config.ursa.admission.enabled = true;
    c.config.ursa.admission.max_pending = 2;
    cases.push_back(c);
  }
  {
    // --workload=tpch --jobs=30 --workers=100 --fault-crashes=2
    //   --fault-recovers=2 --fault-transients=10 --fault-seed=9
    DigestCase c{"repeated-kills", Tpch(30), UrsaEjfConfig()};
    c.config.cluster.num_workers = 100;
    c.config.fault_plan = Faults(9, 100, 100.0, 2, 2, 10, 0);
    cases.push_back(c);
  }
  {
    // As "repeated-kills" plus --ctrl --msg-loss=0.02 --msg-dup=0.02
    //   --sched-crash=1 --checkpoint-interval=5 --spec
    DigestCase c{"kills-lossy-ctrl", Tpch(30), UrsaEjfConfig()};
    c.config.cluster.num_workers = 100;
    LossyCtrl(&c.config, 9, 0.0);
    c.config.ursa.ctrl.checkpoint_interval = 5.0;
    c.config.ursa.spec.enabled = true;
    c.config.fault_plan = Faults(9, 100, 100.0, 2, 2, 10, 0, 1);
    cases.push_back(c);
  }
  {
    // bench_scale's 300-worker row (bench_scale --seed=42): submissions,
    // scheduling ticks and heartbeats all land on the 0.25 s grid, so
    // heartbeats tie with other events at almost every instant.
    DigestCase c{"scale-300", MakePlacementStressWorkload(300, 42), UrsaEjfConfig()};
    c.config.cluster.num_workers = 300;
    cases.push_back(c);
  }
  return cases;
}

// FNV-1a over the raw bytes of each value fed in.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// One config's lines in the two goldens.
struct CaseLines {
  std::string digest;
  std::string scan;
};

CaseLines RunCase(const DigestCase& c) {
  ExperimentConfig config = c.config;
  // The tracer's tick totals give the placement count; only they are read,
  // so monotask events are sampled out and the ring kept tiny.
  config.trace = true;
  config.trace_sample = 1 << 30;
  config.trace_capacity = 1;
  const ExperimentResult result = RunExperiment(c.workload, config, c.name);
  // The executor model records no trace; its placed count reads 0.
  const int64_t placed =
      result.trace != nullptr ? result.trace->tick_summary().placed : 0;

  Digest d;
  for (const JobRecord& record : result.records) {
    d.Add(record.submit_time);
    d.Add(record.finish_time);
  }
  const EfficiencyReport& e = result.efficiency;
  for (double v : {e.ue_cpu, e.se_cpu, e.ue_mem, e.se_mem}) {
    d.Add(v);
  }
  d.Add(result.events_fired);
  d.Add(placed);
  const FaultCounters& f = result.faults;
  for (int v : {f.crashes_injected, f.recoveries_injected, f.transients_injected,
                f.degrades_injected, f.detections, f.rejoins, f.transient_failures,
                f.worker_loss_failures, f.retries, f.escalations, f.tasks_reset,
                f.full_restart_equivalent_tasks, f.full_restarts, f.speculations_launched,
                f.speculations_won, f.speculations_lost, f.speculations_cancelled,
                f.msgs_sent, f.msgs_lost, f.msgs_duplicated, f.msgs_delayed, f.msgs_fenced,
                f.dup_suppressed, f.retransmits, f.scheduler_crashes,
                f.scheduler_recoveries, f.checkpoints, f.redispatched_monotasks}) {
    d.Add(v);
  }
  d.Add(f.journal_records);

  CaseLines lines;
  AppendF(&lines.digest, "%-20s %016llx jobs=%zu events=%llu placed=%lld\n", c.name.c_str(),
          static_cast<unsigned long long>(d.value()), result.records.size(),
          static_cast<unsigned long long>(result.events_fired),
          static_cast<long long>(placed));
  const UrsaScheduler::SchedulerCounters& s = result.scheduler_counters;
  AppendF(&lines.scan, "%-20s bestworker_calls=%lld workers_scanned=%lld load_refreshes=%lld\n",
          c.name.c_str(), static_cast<long long>(s.bestworker_calls),
          static_cast<long long>(s.workers_scanned),
          static_cast<long long>(s.load_refreshes));
  return lines;
}

TEST(SimDigest, StandingSetMatchesCommittedGolden) {
  std::string actual = "# Simulation digests. Regenerate with URSA_REGEN_GOLDEN=1\n";
  actual += "# ./tests/sim_digest_test (see tests/sim_digest_test.cc).\n";
  std::string scans = "# Placement scan counts of the digest configs. Regenerate with\n";
  scans += "# URSA_REGEN_GOLDEN=1 ./tests/sim_digest_test (see tests/sim_digest_test.cc).\n";
  for (const DigestCase& c : MakeCases()) {
    const CaseLines lines = RunCase(c);
    actual += lines.digest;
    scans += lines.scan;
  }
  CheckGolden(kGoldenPath, actual);
  CheckGolden(kScanGoldenPath, scans);
  if (HasFailure()) {
    std::printf("every config's digest:\n%s", actual.c_str());
    std::printf("every config's scan counts:\n%s", scans.c_str());
  }
}

}  // namespace
}  // namespace ursa
