// Reproduces Figure 8: CPU and network utilization of a single Type 1 and a
// single Type 2 synthetic job (section 5.3) running alone under Ursa.
//
// Paper's shape: 5 regular cycles of a ~5 s (Type 1) / ~2.5 s (Type 2)
// full-CPU phase followed by a network phase; single-job average CPU
// utilization ~57% (Type 1) and ~50% (Type 2); JCTs ~40 s and ~22 s.
#include "bench/bench_util.h"
#include "src/workloads/synthetic.h"

namespace ursa {
namespace {

void RunType(int type) {
  Workload workload;
  workload.name = "synthetic";
  WorkloadJob job;
  SyntheticJobParams params;
  params.type = type;
  job.spec = BuildSyntheticJob(params, 100 + type);
  workload.jobs.push_back(std::move(job));
  ExperimentConfig config = UrsaEjfConfig();
  config.sample_step = 0.25;
  const std::string label = "fig8-type" + std::to_string(type);
  const ExperimentResult result = RunExperiment(workload, config, label);
  double cpu = 0.0;
  for (double c : result.series.cpu) {
    cpu += c;
  }
  std::printf("%s: JCT %.2f s, avg CPU %.1f%%\n", label.c_str(), result.records[0].jct(),
              cpu / std::max<size_t>(result.series.cpu.size(), 1));
  PrintWindow(result, 0.0, result.records[0].finish_time);
}

}  // namespace
}  // namespace ursa

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  ursa::RunType(1);
  ursa::RunType(2);
  return 0;
}
