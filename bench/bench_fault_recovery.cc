// Chaos benchmark for the fault-tolerance subsystem (section 4.3 and
// DESIGN.md section 14): worker chaos plus control-plane chaos.
//
// A seed-swept summary: for each fault seed the same TPC-H workload runs
// under
//   journal - lossy message layer + a mid-run scheduler crash, recovered
//             from the periodic checkpoint + decision journal;
//   restart - the same plan with journaling off, so the scheduler crash
//             degrades to full restarts of every live job;
// against one clean baseline run (no faults, message layer off). Every run
// also carries worker chaos (a crash+recover cycle and transient failures),
// so recovery paths compose.
//
// The interesting numbers per seed: scheduler recovery time, how many
// monotasks the post-recovery resync re-dispatched, and the JCT overhead of
// each mode against the clean baseline. The gated figure is
// `jct_ratio_journal` — the mean avg-JCT ratio of the journaled chaos runs
// over clean. It is simulated time, so it is machine-independent and only
// moves when scheduling or recovery behavior changes.
//
//   bench_fault_recovery [--seed=N] [--full] [--json-out=FILE]
//                        [--baseline=FILE]
//
// Default (CI smoke): 3 fault seeds on 40 jobs. --full: 5 seeds on 60 jobs.
// With --baseline, the run fails (exit 1) when jct_ratio_journal rises more
// than 20% above the baseline file's value (higher ratio = worse recovery).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_injector.h"
#include "src/workloads/tpch.h"

namespace {

using namespace ursa;

struct Options {
  uint64_t seed = 9;
  bool full = false;
  std::string json_out = "BENCH_fault.json";
  std::string baseline;
};

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--seed=N] [--full] [--json-out=FILE] [--baseline=FILE]\n",
               argv0);
  return 2;
}

struct Row {
  uint64_t fault_seed = 0;
  std::string mode;  // "journal" | "restart"
  double makespan = 0.0;
  double avg_jct = 0.0;
  double jct_ratio = 0.0;  // avg_jct / clean avg_jct.
  int sched_crashes = 0;
  int sched_recoveries = 0;
  double recovery_latency = 0.0;
  int checkpoints = 0;
  long long journal_records = 0;
  int redispatched = 0;
  int fenced = 0;
  int retransmits = 0;
  int full_restarts = 0;
  int tasks_reset = 0;
};

Workload MakeFaultWorkload(const Options& opt) {
  TpchWorkloadConfig wc;
  wc.num_jobs = opt.full ? 60 : 40;
  wc.submit_interval = 5.0;
  wc.seed = 42;
  return MakeTpchWorkload(wc);
}

FaultPlan MakePlan(uint64_t fault_seed, bool with_sched_crash) {
  FaultPlanConfig pc;
  pc.seed = fault_seed;
  pc.num_workers = 20;
  pc.horizon_start = 10.0;
  pc.horizon_end = 200.0;
  pc.crash_recovers = 1;
  pc.transients = 4;
  pc.sched_crash_recovers = with_sched_crash ? 1 : 0;
  pc.min_sched_downtime = 2.0;
  pc.max_sched_downtime = 8.0;
  return MakeRandomFaultPlan(pc);
}

ExperimentConfig ChaosConfig(uint64_t fault_seed, bool journaled) {
  ExperimentConfig config = UrsaEjfConfig();
  config.fault_plan = MakePlan(fault_seed, /*with_sched_crash=*/true);
  config.ursa.ctrl.enabled = true;
  config.ursa.ctrl.seed = fault_seed;
  config.ursa.ctrl.loss_prob = 0.02;
  config.ursa.ctrl.dup_prob = 0.02;
  config.ursa.ctrl.delay_prob = 0.05;
  config.ursa.ctrl.checkpoint_interval = journaled ? 5.0 : 0.0;
  return config;
}

Row RunRow(const Workload& workload, uint64_t fault_seed, bool journaled,
           double clean_avg_jct) {
  Row row;
  row.fault_seed = fault_seed;
  row.mode = journaled ? "journal" : "restart";
  const ExperimentResult result =
      RunExperiment(workload, ChaosConfig(fault_seed, journaled), row.mode);
  row.makespan = result.makespan();
  row.avg_jct = result.avg_jct();
  row.jct_ratio = clean_avg_jct > 0.0 ? row.avg_jct / clean_avg_jct : 0.0;
  const FaultCounters& f = result.faults;
  row.sched_crashes = f.scheduler_crashes;
  row.sched_recoveries = f.scheduler_recoveries;
  row.recovery_latency = f.avg_scheduler_recovery_latency();
  row.checkpoints = f.checkpoints;
  row.journal_records = f.journal_records;
  row.redispatched = f.redispatched_monotasks;
  row.fenced = f.msgs_fenced;
  row.retransmits = f.retransmits;
  row.full_restarts = f.full_restarts;
  row.tasks_reset = f.tasks_reset;
  return row;
}

void AppendRowJson(std::string* out, const Row& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"fault_seed\": %llu, \"mode\": \"%s\", \"makespan\": %.3f, "
                "\"avg_jct\": %.3f, \"jct_ratio\": %.4f, \"sched_crashes\": %d, "
                "\"sched_recoveries\": %d, \"recovery_latency\": %.3f, "
                "\"checkpoints\": %d, \"journal_records\": %lld, "
                "\"redispatched\": %d, \"fenced\": %d, \"retransmits\": %d, "
                "\"full_restarts\": %d, \"tasks_reset\": %d}",
                static_cast<unsigned long long>(r.fault_seed), r.mode.c_str(), r.makespan,
                r.avg_jct, r.jct_ratio, r.sched_crashes, r.sched_recoveries,
                r.recovery_latency, r.checkpoints, r.journal_records, r.redispatched,
                r.fenced, r.retransmits, r.full_restarts, r.tasks_reset);
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--full") == 0) {
      opt.full = true;
    } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
      opt.json_out = arg + 11;
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      opt.baseline = arg + 11;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    }
  }

  const Workload workload = MakeFaultWorkload(opt);
  std::printf("running clean baseline (%zu jobs)...\n", workload.jobs.size());
  std::fflush(stdout);
  const ExperimentResult clean = RunExperiment(workload, UrsaEjfConfig(), "clean");
  const double clean_jct = clean.avg_jct();

  const int num_seeds = opt.full ? 5 : 3;
  std::vector<Row> rows;
  Table table({"faultSeed", "mode", "makespan", "avgJCT", "JCTx", "recoveryLat",
               "checkpoints", "redispatched", "fenced", "fullRestarts"});
  bool ok = true;
  for (int s = 0; s < num_seeds; ++s) {
    const uint64_t fault_seed = opt.seed + static_cast<uint64_t>(s);
    for (const bool journaled : {true, false}) {
      std::printf("running %s @ fault seed %llu...\n", journaled ? "journal" : "restart",
                  static_cast<unsigned long long>(fault_seed));
      std::fflush(stdout);
      rows.push_back(RunRow(workload, fault_seed, journaled, clean_jct));
      const Row& r = rows.back();
      table.Row()
          .Cell(static_cast<int64_t>(r.fault_seed))
          .Cell(r.mode)
          .Cell(r.makespan, 1)
          .Cell(r.avg_jct, 2)
          .Cell(r.jct_ratio, 3)
          .Cell(r.recovery_latency, 3)
          .Cell(static_cast<int64_t>(r.checkpoints))
          .Cell(static_cast<int64_t>(r.redispatched))
          .Cell(static_cast<int64_t>(r.fenced))
          .Cell(static_cast<int64_t>(r.full_restarts));
      // Structural checks: every injected scheduler crash recovered, and the
      // journaled mode never fell back to restarting a job from its input.
      if (r.sched_crashes != 1 || r.sched_recoveries != 1) {
        std::fprintf(stderr, "FAIL: seed %llu %s saw %d crashes / %d recoveries\n",
                     static_cast<unsigned long long>(r.fault_seed), r.mode.c_str(),
                     r.sched_crashes, r.sched_recoveries);
        ok = false;
      }
      if (journaled && r.full_restarts > 0) {
        std::fprintf(stderr,
                     "FAIL: journaled recovery at seed %llu full-restarted %d jobs\n",
                     static_cast<unsigned long long>(r.fault_seed), r.full_restarts);
        ok = false;
      }
    }
  }
  table.Print("scheduler crash-recovery sweep (clean avgJCT " +
              std::to_string(clean_jct) + "s)");

  double ratio_journal = 0.0;
  double ratio_restart = 0.0;
  double mean_recovery = 0.0;
  double mean_redispatched = 0.0;
  int journal_rows = 0;
  int restart_rows = 0;
  for (const Row& r : rows) {
    if (r.mode == "journal") {
      ratio_journal += r.jct_ratio;
      mean_recovery += r.recovery_latency;
      mean_redispatched += r.redispatched;
      ++journal_rows;
    } else {
      ratio_restart += r.jct_ratio;
      ++restart_rows;
    }
  }
  if (journal_rows > 0) {
    ratio_journal /= journal_rows;
    mean_recovery /= journal_rows;
    mean_redispatched /= journal_rows;
  }
  if (restart_rows > 0) {
    ratio_restart /= restart_rows;
  }
  std::printf("jct_ratio_journal: %.4fx  jct_ratio_restart: %.4fx  "
              "mean recovery %.3fs  mean redispatched %.1f\n",
              ratio_journal, ratio_restart, mean_recovery, mean_redispatched);
  // Journaled recovery exists to beat the restart fallback; if it ever costs
  // more JCT than restarting everything, the journal path regressed.
  if (journal_rows > 0 && restart_rows > 0 && ratio_journal > ratio_restart) {
    std::fprintf(stderr, "FAIL: journaled recovery (%.4fx) is worse than restarts (%.4fx)\n",
                 ratio_journal, ratio_restart);
    ok = false;
  }

  // Regression gate: jct_ratio_journal is simulated time over simulated
  // time, so it transfers across machines exactly.
  if (!opt.baseline.empty() &&
      !PassesBaselineGate(opt.baseline, "jct_ratio_journal", ratio_journal, false, 4)) {
    ok = false;
  }

  std::string json = "{\n  \"bench\": \"fault\",\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"seed\": %llu,\n  \"full\": %s,\n  \"clean_avg_jct\": %.3f,\n"
                "  \"jct_ratio_journal\": %.4f,\n  \"jct_ratio_restart\": %.4f,\n"
                "  \"mean_recovery_latency\": %.3f,\n  \"mean_redispatched\": %.1f,\n",
                static_cast<unsigned long long>(opt.seed), opt.full ? "true" : "false",
                clean_jct, ratio_journal, ratio_restart, mean_recovery, mean_redispatched);
  json += buf;
  std::snprintf(buf, sizeof(buf), "  \"pass\": %s,\n  \"rows\": [\n", ok ? "true" : "false");
  json += buf;
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendRowJson(&json, rows[i]);
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  return WriteBenchJson(opt.json_out, json, ok);
}
