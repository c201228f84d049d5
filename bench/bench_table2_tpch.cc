// Reproduces Table 2 and Figure 4: the 200-job TPC-H workload (one job
// every 5 s) under Ursa-EJF, Ursa-SRJF, Y+S (Spark-like executor model on a
// YARN-like RM) and Y+T (Tez-like).
//
// Paper's result shape to compare against (Table 2): Ursa achieves ~99% CPU
// UE vs 69%/59% for Y+S/Y+T; makespan Ursa < Y+S < Y+T; SRJF trades a bit of
// makespan for much better average JCT; Ursa's memory UE roughly doubles
// Y+S's. Figure 4: Ursa's cluster CPU utilization is consistently high,
// Y+S/Y+T fluctuate heavily (printed as CSV series over a 10-minute window).
#include <limits>

#include "bench/bench_util.h"
#include "src/workloads/tpch.h"

int main(int argc, char** argv) {
  using namespace ursa;
  BenchTraceOptions trace;
  FlagSet flags;
  flags.Str("trace-out", &trace.out, "Chrome trace JSON, one file per scheme");
  flags.Num("trace-sample", &trace.sample, 1, 1000000, "record 1 in N monotasks");
  flags.Num("trace-capacity", &trace.capacity, size_t{1}, std::numeric_limits<size_t>::max(),
            "trace ring events");
  if (const int rc = flags.Parse(argc, argv)) {
    return rc;
  }
  TpchWorkloadConfig wc;
  wc.num_jobs = 200;
  wc.submit_interval = 5.0;
  wc.seed = 42;
  const Workload workload = MakeTpchWorkload(wc);

  std::vector<SchemeRun> schemes = {
      {"Ursa-EJF", UrsaEjfConfig()},
      {"Ursa-SRJF", UrsaSrjfConfig()},
      {"Y+S", SparkLikeConfig()},
      {"Y+T", TezLikeConfig()},
  };
  const auto results =
      RunSchemes(workload, std::move(schemes), "Table 2: TPC-H (makespan/avgJCT s, rest %)",
                 /*sample_step=*/5.0, &trace);

  std::printf("\nFigure 4: cluster utilization, 10-minute window [1000s, 1600s]\n");
  for (const ExperimentResult& result : results) {
    PrintWindow(result, 1000.0, 1600.0);
  }
  return 0;
}
