// Reproduces Table 3 and Figure 5: the 200-job TPC-DS workload (deep DAGs,
// many small tasks) under Ursa-EJF, Ursa-SRJF and Y+S.
//
// Paper's shape: Ursa's utilization stays as high as on TPC-H while Y+S
// degrades further (48.6% CPU UE vs 69% on TPC-H) because deep DAGs with
// alternating parallelism leave executors idle within the dynamic-allocation
// timeout, and small partitions amplify per-task overheads; makespan and
// average JCT gaps widen accordingly.
#include "bench/bench_util.h"
#include "src/workloads/tpcds.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  TpcdsWorkloadConfig wc;
  wc.num_jobs = 200;
  wc.submit_interval = 5.0;
  wc.seed = 77;
  const Workload workload = MakeTpcdsWorkload(wc);

  std::vector<SchemeRun> schemes = {
      {"Ursa-EJF", UrsaEjfConfig()},
      {"Ursa-SRJF", UrsaSrjfConfig()},
      {"Y+S", SparkLikeConfig()},
  };
  const auto results = RunSchemes(workload, std::move(schemes),
                                  "Table 3: TPC-DS (makespan/avgJCT s, rest %)",
                                  /*sample_step=*/5.0);

  std::printf("\nFigure 5: cluster utilization over the full run\n");
  for (const ExperimentResult& result : results) {
    PrintWindow(result, 0.0, 1600.0);
  }
  return 0;
}
