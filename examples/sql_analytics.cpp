// Example: scheduling a burst of analytical SQL jobs on a simulated 20-node
// cluster, comparing Ursa's fine-grained scheduling with an executor-model
// baseline - the paper's headline scenario at a friendly scale.
//
//   $ ./examples/sql_analytics [--jobs=N]
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/driver/experiment.h"
#include "src/workloads/tpch.h"

int main(int argc, char** argv) {
  using namespace ursa;
  int num_jobs = 30;
  FlagSet flags;
  flags.Num("jobs", &num_jobs, 1, 10'000'000, "TPC-H-shaped jobs to submit");
  if (const int rc = flags.Parse(argc, argv)) {
    return rc;
  }

  TpchWorkloadConfig wc;
  wc.num_jobs = num_jobs;
  wc.submit_interval = 5.0;
  wc.seed = 7;
  const Workload workload = MakeTpchWorkload(wc);
  std::printf("submitting %d TPC-H-shaped jobs, one every %.0f s, to 20 workers\n\n",
              num_jobs, wc.submit_interval);

  Table table({"scheme", "makespan(s)", "avgJCT(s)", "UEcpu%", "SEcpu%"});
  for (const auto& [name, config] :
       std::vector<std::pair<std::string, ExperimentConfig>>{
           {"Ursa (EJF)", UrsaEjfConfig()},
           {"Ursa (SRJF)", UrsaSrjfConfig()},
           {"YARN+Spark-like", SparkLikeConfig()},
       }) {
    const ExperimentResult result = RunExperiment(workload, config, name);
    table.Row()
        .Cell(name)
        .Cell(result.makespan(), 1)
        .Cell(result.avg_jct(), 1)
        .Cell(result.efficiency.ue_cpu, 1)
        .Cell(result.efficiency.se_cpu, 1);
  }
  table.Print("SQL analytics burst");

  std::printf(
      "\nUrsa keeps every allocated core busy (UE ~100%%): resources are\n"
      "acquired per monotask exactly when used and returned immediately,\n"
      "so one job's network phase overlaps another job's compute.\n");
  return 0;
}
