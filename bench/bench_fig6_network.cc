// Reproduces Figure 6 and the network-awareness ablation of section 5.2, on
// the TPC-H2 workload.
//
// Part 1 (ablation): ignoring network demands in task placement collocates
// large network monotasks, whose contention blocks dependent CPU monotasks -
// makespan and average JCT degrade (paper: 650/383 s -> 613/339 s when
// network demands are considered). The per-worker network/CPU utilization
// spread stays small when network is considered (paper: ~3%).
//
// Part 2 (Figure 6): with 1 Gbps links the network becomes the bottleneck -
// Ursa drives network utilization high while CPU starves; at 4 Gbps the
// bottleneck switches back to CPU. Ursa maximizes whichever resource is the
// bottleneck.
#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/workloads/tpch.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  const Workload workload = MakeTpch2Workload(1234);

  {
    Table table({"placement", "makespan", "avgJCT", "cpu-imb", "net-imb"});
    for (bool consider : {false, true}) {
      ExperimentConfig config = UrsaEjfConfig();
      config.ursa.consider_network = consider;
      const ExperimentResult result = RunExperiment(
          workload, config, consider ? "network-aware" : "network-ignored");
      table.Row()
          .Cell(result.scheme)
          .Cell(result.makespan(), 2)
          .Cell(result.avg_jct(), 2)
          .Cell(result.efficiency.cpu_imbalance, 2)
          .Cell(result.efficiency.net_imbalance, 2);
    }
    table.Print("Section 5.2: effect of considering network demands (TPC-H2)");
  }

  std::printf("\nFigure 6: bottleneck switching with link bandwidth\n");
  Table table({"bandwidth", "makespan", "avg-cpu%", "avg-net%"});
  std::vector<ExperimentResult> series_results;
  for (double gbps : {1.0, 4.0, 10.0}) {
    ExperimentConfig config = UrsaEjfConfig();
    config.cluster.downlink_bytes_per_sec = GbpsToBytesPerSec(gbps);
    config.sample_step = 2.0;
    const ExperimentResult result = RunExperiment(
        workload, config, std::to_string(static_cast<int>(gbps)) + "Gbps");
    double cpu = 0.0;
    double net = 0.0;
    for (size_t i = 0; i < result.series.cpu.size(); ++i) {
      cpu += result.series.cpu[i];
      net += result.series.net[i];
    }
    const double n = std::max<size_t>(result.series.cpu.size(), 1);
    table.Row()
        .Cell(result.scheme)
        .Cell(result.makespan(), 2)
        .Cell(cpu / n, 1)
        .Cell(net / n, 1);
    series_results.push_back(result);
  }
  table.Print("");
  for (const ExperimentResult& result : series_results) {
    PrintWindow(result, 0.0, 600.0);
  }
  return 0;
}
