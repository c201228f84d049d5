// Reproduces Table 1: the best achievable CPU utilization efficiency of the
// executor model for single jobs, with containers tuned to peak demands.
// UE = (total CPU time used by the job) / (allocated cores x JCT).
//
// Paper's shape: even with ideal container sizing, Spark reaches only
// 14-62% CPU UE (LR worst: long container lifetimes vs short compute
// bursts), Tez lower still on the queries it runs (N/A for LR/CC, matching
// the paper).
#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/workloads/graph.h"
#include "src/workloads/ml.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

double SingleJobUe(JobSpec spec, const ExperimentConfig& base) {
  Workload workload;
  workload.name = "single";
  WorkloadJob job;
  job.spec = std::move(spec);
  workload.jobs.push_back(std::move(job));
  const ExperimentResult result = RunExperiment(workload, base, "single");
  return result.efficiency.ue_cpu;
}

}  // namespace
}  // namespace ursa

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  Table table({"system", "LR", "CC", "TPC-H Q14", "TPC-H Q8"});
  table.Row()
      .Cell("Spark")
      .Cell(SingleJobUe(BuildMlJob(LrParams(), 21), SparkLikeConfig()), 2)
      .Cell(SingleJobUe(BuildGraphJob(CcParams(), 23), SparkLikeConfig()), 2)
      .Cell(SingleJobUe(MakeTpchQuery(14, 200.0 * kGiB, 25), SparkLikeConfig()), 2)
      .Cell(SingleJobUe(MakeTpchQuery(8, 200.0 * kGiB, 27), SparkLikeConfig()), 2);
  table.Row()
      .Cell("Tez")
      .Cell("N/A")
      .Cell("N/A")
      .Cell(SingleJobUe(MakeTpchQuery(14, 200.0 * kGiB, 25), TezLikeConfig()), 2)
      .Cell(SingleJobUe(MakeTpchQuery(8, 200.0 * kGiB, 27), TezLikeConfig()), 2);
  table.Print("Table 1: single-job CPU utilization efficiency (%)");
  return 0;
}
