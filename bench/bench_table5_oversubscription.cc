// Reproduces Table 5 (and the straggler analysis around it): CPU
// over-subscription ratios 1 / 2 / 4 for Y+U and Y+S on the Mixed workload.
//
// Paper's shape: ratio 2 improves makespan and average JCT for both systems
// (more containers overlap the fluctuating usage), but ratio 4 brings
// diminishing or negative returns as load imbalance and contention grow; the
// straggler-time-to-JCT ratio increases with the subscription ratio (paper:
// 2.91% -> 6.78% -> 10.69% for Y+U), while the per-worker CPU utilization
// spread stays far above Ursa's ~2%.
#include "bench/bench_util.h"
#include "src/workloads/mixed.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  MixedWorkloadConfig wc;
  wc.seed = 2020;
  const Workload workload = MakeMixedWorkload(wc);

  Table table({"scheme", "ratio", "makespan", "avgJCT", "straggler%", "cpu-imb"});
  for (double ratio : {1.0, 2.0, 4.0}) {
    for (const auto& [name, base] :
         std::vector<std::pair<std::string, ExperimentConfig>>{
             {"Y+U", MonoSparkConfig()}, {"Y+S", SparkLikeConfig()}}) {
      ExperimentConfig config = base;
      config.cm.cpu_subscription_ratio = ratio;
      // Smaller containers so up to 4x more fit in memory (paper sets 4 GB
      // for SQL jobs in this experiment).
      config.executor.executor_memory_bytes = 4.0 * 1024 * 1024 * 1024;
      const ExperimentResult result =
          RunExperiment(workload, config, name + "-x" + std::to_string(int(ratio)));
      table.Row()
          .Cell(name)
          .Cell(ratio, 0)
          .Cell(result.makespan(), 0)
          .Cell(result.avg_jct(), 2)
          .Cell(result.straggler_ratio, 2)
          .Cell(result.efficiency.cpu_imbalance, 2);
    }
  }
  // Ursa reference row (ratio column marked "-").
  const ExperimentResult ursa_result = RunExperiment(workload, UrsaEjfConfig(), "Ursa-EJF");
  table.Row()
      .Cell("Ursa-EJF")
      .Cell("-")
      .Cell(ursa_result.makespan(), 0)
      .Cell(ursa_result.avg_jct(), 2)
      .Cell(ursa_result.straggler_ratio, 2)
      .Cell(ursa_result.efficiency.cpu_imbalance, 2);
  table.Print("Table 5: CPU over-subscription on Mixed (sec / %)");
  return 0;
}
