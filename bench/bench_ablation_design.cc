// Ablations of Ursa's design knobs that the paper fixes by construction
// (no paper table corresponds to this bench; it exercises the trade-offs
// sections 4.2.2 / 4.2.3 discuss):
//
//  * scheduling interval (and with it EPT): shorter intervals give lower
//    scheduling latency (Obj-4) at more scheduler work; overly long
//    intervals leave resources idle between batches;
//  * per-worker network monotask concurrency (paper: "a small concurrency
//    of 1 to 4"): 1 underuses the downlink when senders are slow, large
//    values recreate the contention the limit exists to avoid;
//  * the 16 KB small-transfer bypass: without it, latency-sensitive tiny
//    transfers queue behind bulk shuffles.
#include "bench/bench_util.h"
#include "src/workloads/tpch.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  const Workload workload = MakeTpch2Workload(1234);

  {
    Table table({"interval(s)", "makespan", "avgJCT", "SEcpu"});
    for (double interval : {0.1, 0.25, 0.5, 1.0, 2.0}) {
      ExperimentConfig config = UrsaEjfConfig();
      config.ursa.scheduling_interval = interval;
      const ExperimentResult result = RunExperiment(workload, config, "interval");
      table.Row()
          .Cell(interval, 2)
          .Cell(result.makespan(), 2)
          .Cell(result.avg_jct(), 2)
          .Cell(result.efficiency.se_cpu, 2);
    }
    table.Print("Ablation: scheduling interval / EPT (TPC-H2, EJF)");
  }
  {
    Table table({"net-concurrency", "makespan", "avgJCT"});
    for (int concurrency : {1, 2, 4, 8}) {
      ExperimentConfig config = UrsaEjfConfig();
      config.cluster.worker.network_concurrency = concurrency;
      const ExperimentResult result = RunExperiment(workload, config, "conc");
      table.Row()
          .Cell(static_cast<int64_t>(concurrency))
          .Cell(result.makespan(), 2)
          .Cell(result.avg_jct(), 2);
    }
    table.Print("Ablation: network monotask concurrency (section 4.2.3)");
  }
  {
    Table table({"small-bypass", "makespan", "avgJCT"});
    for (bool bypass : {true, false}) {
      ExperimentConfig config = UrsaEjfConfig();
      config.cluster.worker.small_transfer_bypass_bytes = bypass ? 16.0 * 1024 : 0.0;
      const ExperimentResult result = RunExperiment(workload, config, "bypass");
      table.Row()
          .Cell(bypass ? "16KB" : "off")
          .Cell(result.makespan(), 2)
          .Cell(result.avg_jct(), 2);
    }
    table.Print("Ablation: latency-sensitive small-transfer bypass");
  }
  return 0;
}
