// Reproduces Figure 7 and the stage-awareness ablation of section 5.2:
// stage-aware placement (Algorithm 1's stage bonus) vs picking the single
// highest-scoring task each time, on TPC-H2 under EJF and SRJF.
//
// Paper's shape: per-task placement leaves each stage with a few unplaced
// low-score tasks (stragglers) that block the dependent stages, dropping
// CPU utilization (visible as a dip in the non-stage-aware series) and
// adding ~6-16% to makespan and average JCT.
#include "bench/bench_util.h"
#include "src/workloads/tpch.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  const Workload workload = MakeTpch2Workload(1234);

  Table table({"policy", "placement", "makespan", "avgJCT", "delta-ms%", "delta-jct%"});
  std::vector<ExperimentResult> series_results;
  for (OrderingPolicy policy : {OrderingPolicy::kEjf, OrderingPolicy::kSrjf}) {
    double base_makespan = 0.0;
    double base_jct = 0.0;
    for (bool stage_aware : {true, false}) {
      ExperimentConfig config = UrsaEjfConfig();
      config.ursa.policy = policy;
      config.ursa.stage_aware = stage_aware;
      config.sample_step = 2.0;
      const ExperimentResult result =
          RunExperiment(workload, config,
                        std::string(OrderingPolicyName(policy)) +
                            (stage_aware ? "-stage-aware" : "-per-task"));
      if (stage_aware) {
        base_makespan = result.makespan();
        base_jct = result.avg_jct();
      }
      table.Row()
          .Cell(OrderingPolicyName(policy))
          .Cell(stage_aware ? "stage-aware" : "per-task")
          .Cell(result.makespan(), 2)
          .Cell(result.avg_jct(), 2)
          .Cell(stage_aware ? 0.0 : 100.0 * (result.makespan() - base_makespan) / base_makespan,
                2)
          .Cell(stage_aware ? 0.0 : 100.0 * (result.avg_jct() - base_jct) / base_jct, 2);
      if (policy == OrderingPolicy::kEjf) {
        series_results.push_back(result);
      }
    }
  }
  table.Print("Figure 7 / section 5.2: stage-aware vs per-task placement (TPC-H2)");
  std::printf("\nFigure 7 series (EJF): stage-aware then per-task\n");
  for (const ExperimentResult& result : series_results) {
    PrintWindow(result, 0.0, 400.0);
  }
  return 0;
}
