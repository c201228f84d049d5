// Reproduces Table 4: the Mixed workload (32 TPC-H + 4 ML + 2 graph jobs)
// under Ursa-EJF/SRJF, Y+U (MonoSpark simulation: Ursa's execution layer in
// YARN containers), Y+S, and Ursa with the Capacity / Tetris / Tetris2
// placement algorithms replacing Algorithm 1.
//
// Paper's shape: (1) Y+U is no better than Y+S - monotasks *within* a job
// are not enough, cross-job fine-grained sharing is what matters; (2)
// Capacity/Tetris inside Ursa come close but lose SE_cpu to Algorithm 1
// because peak-demand reservations block placements; (3) Tetris2 (ignoring
// network) beats Tetris, since Tetris blocks on phantom network demand.
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

  auto with_placement = [](PlacementAlgorithm alg) {
    ExperimentConfig config = UrsaEjfConfig();
    config.ursa.placement = alg;
    return config;
  };

  std::vector<SchemeRun> schemes = {
      {"Ursa-EJF", UrsaEjfConfig()},
      {"Ursa-SRJF", UrsaSrjfConfig()},
      {"Y+U", MonoSparkConfig()},
      {"Y+S", SparkLikeConfig()},
      {"Capacity", with_placement(PlacementAlgorithm::kCapacity)},
      {"Tetris", with_placement(PlacementAlgorithm::kTetris)},
      {"Tetris2", with_placement(PlacementAlgorithm::kTetris2)},
  };
  RunSchemes(workload, std::move(schemes), "Table 4: Mixed (makespan/avgJCT s, rest %)");
  return 0;
}
