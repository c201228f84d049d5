// Straggler-mitigation benchmark (DESIGN.md section 9).
//
// Sweeps degraded-rate severity x fraction of slowed workers on a TPC-H
// workload and compares speculation off vs on for each scenario:
//
//   none          - no degraded workers (control: speculation must be ~free);
//   10% @ 0.2     - 10% of workers at speed factor 0.2 for the whole run;
//   10% @ 0.5, 25% @ 0.2, 25% @ 0.5 - milder / broader variants.
//
// Reported per scenario: makespan, mean/p95 JCT, the speculation counters
// and the wasted duplicate work. The headline numbers: with 10% of workers
// degraded to 0.2 speculation should cut p95 JCT by >= 20%, while the clean
// control should move mean JCT by < 2%.
//
// Exit status 1 if an enabled run under injected stragglers launched zero
// speculative copies (the detection -> mitigation loop is broken).
//
//   bench_straggler_mitigation [--seed=N] [--jobs=N] [--trace-out=FILE]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/fault/fault_injector.h"
#include "src/workloads/tpch.h"

namespace {

struct Scenario {
  std::string name;
  std::string slug;              // Filesystem-safe name for trace files.
  double worker_fraction = 0.0;  // Fraction of workers degraded.
  double factor = 1.0;           // Speed factor of the degraded workers.
};

// Degrades the first `fraction` of the cluster for the whole run. Explicit
// (not MakeRandomFaultPlan) so severity and victim count are exact.
ursa::FaultPlan DegradePlan(int num_workers, double fraction, double factor,
                            double duration) {
  ursa::FaultPlan plan;
  const int victims = static_cast<int>(num_workers * fraction + 0.5);
  for (int w = 0; w < victims; ++w) {
    ursa::FaultEvent e;
    e.kind = ursa::FaultKind::kDegrade;
    e.time = 1.0;
    e.worker = w;
    e.factor = factor;
    e.duration = duration;
    plan.events.push_back(e);
  }
  return plan;
}

std::vector<double> Jcts(const ursa::ExperimentResult& result) {
  std::vector<double> jcts;
  for (const ursa::JobRecord& r : result.records) {
    jcts.push_back(r.jct());
  }
  return jcts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ursa;
  uint64_t seed = 42;
  int jobs = 40;
  std::string trace_out;
  FlagSet flags;
  flags.Num("seed", &seed, "workload seed");
  flags.Num("jobs", &jobs, 1, 10000000, "TPC-H jobs");
  flags.Str("trace-out", &trace_out, "Chrome trace JSON, one file per speculating scenario");
  if (const int rc = flags.Parse(argc, argv)) {
    return rc;
  }

  TpchWorkloadConfig wc;
  wc.num_jobs = jobs;
  wc.submit_interval = 5.0;
  wc.seed = seed;
  const Workload workload = MakeTpchWorkload(wc);
  constexpr int kWorkers = 20;
  constexpr double kDegradeDuration = 1e6;  // Effectively the whole run.

  const std::vector<Scenario> scenarios = {
      {"none", "none", 0.0, 1.0},
      {"10% @ 0.2", "10p-0.2", 0.10, 0.2},
      {"10% @ 0.5", "10p-0.5", 0.10, 0.5},
      {"25% @ 0.2", "25p-0.2", 0.25, 0.2},
      {"25% @ 0.5", "25p-0.5", 0.25, 0.5},
  };

  Table table({"scenario", "spec", "makespan", "meanJCT", "p95JCT", "launched", "won",
               "lost", "cancelled", "wasted(s)"});
  bool counters_ok = true;
  double clean_mean_off = 0.0, clean_mean_on = 0.0;
  double headline_p95_off = 0.0, headline_p95_on = 0.0;
  for (const Scenario& sc : scenarios) {
    const FaultPlan plan =
        DegradePlan(kWorkers, sc.worker_fraction, sc.factor, kDegradeDuration);
    Summary off_summary, on_summary;
    for (const bool spec_on : {false, true}) {
      ExperimentConfig config = UrsaEjfConfig();
      config.cluster.num_workers = kWorkers;
      config.fault_plan = plan;
      config.ursa.spec.enabled = spec_on;
      // Tuned for severe degradation: flag stragglers earlier and allow a
      // deeper duplicate pool than the conservative defaults.
      config.ursa.spec.slowdown_threshold = 1.5;
      config.ursa.spec.budget_fraction = 0.25;
      if (spec_on && !trace_out.empty()) {
        config.trace_out = TraceFileForScheme(trace_out, sc.slug);
      }
      const ExperimentResult result =
          RunExperiment(workload, config, sc.name + (spec_on ? "/spec" : "/base"));
      const Summary jct = Summarize(Jcts(result));
      (spec_on ? on_summary : off_summary) = jct;
      const FaultCounters& f = result.faults;
      table.Row()
          .Cell(sc.name)
          .Cell(spec_on ? "on" : "off")
          .Cell(result.makespan(), 1)
          .Cell(jct.mean, 2)
          .Cell(jct.p95, 2)
          .Cell(static_cast<int64_t>(f.speculations_launched))
          .Cell(static_cast<int64_t>(f.speculations_won))
          .Cell(static_cast<int64_t>(f.speculations_lost))
          .Cell(static_cast<int64_t>(f.speculations_cancelled))
          .Cell(f.total_wasted_seconds(), 2);
      if (spec_on && sc.worker_fraction > 0.0 && f.speculations_launched == 0) {
        std::fprintf(stderr,
                     "FAIL: scenario '%s' injected stragglers but speculation "
                     "launched no copies\n",
                     sc.name.c_str());
        counters_ok = false;
      }
    }
    if (sc.worker_fraction == 0.0) {
      clean_mean_off = off_summary.mean;
      clean_mean_on = on_summary.mean;
    }
    if (sc.name == "10% @ 0.2") {
      headline_p95_off = off_summary.p95;
      headline_p95_on = on_summary.p95;
    }
  }
  table.Print("Straggler mitigation: TPC-H " + std::to_string(jobs) +
              " jobs, degraded workers");

  if (headline_p95_off > 0.0) {
    std::printf("\n10%% @ 0.2: p95 JCT %.2f -> %.2f (%.1f%% lower with speculation)\n",
                headline_p95_off, headline_p95_on,
                100.0 * (headline_p95_off - headline_p95_on) / headline_p95_off);
  }
  if (clean_mean_off > 0.0) {
    std::printf("no stragglers: mean JCT %.2f -> %.2f (%.2f%% delta)\n", clean_mean_off,
                clean_mean_on,
                100.0 * (clean_mean_on - clean_mean_off) / clean_mean_off);
  }
  return counters_ok ? 0 : 1;
}
