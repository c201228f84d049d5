// Reproduces Figure 9 (section 5.3, setting 1): 40 Type 1 synthetic jobs
// under Ursa-EJF, comparing actual JCTs against the closed-form expected
// JCTs of the ideal fine-grained schedule (jobs pair up; while one job's
// stage computes on all cores, the other's shuffles; j1 finishes at 40 s,
// j2 at 48 s, j3 at 80 s, ...), plus the cluster utilization series showing
// stable, nearly-full CPU use.
#include "bench/bench_util.h"
#include "src/workloads/synthetic.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  const int kJobs = 40;
  const Workload workload = MakeSyntheticType1Workload(kJobs, 900);

  // Measure the single-job profile first (defines jct1 / stage1).
  double jct1 = 0.0;
  {
    Workload single;
    single.name = "one";
    WorkloadJob job;
    SyntheticJobParams params;
    params.type = 1;
    job.spec = BuildSyntheticJob(params, 900);
    single.jobs.push_back(std::move(job));
    jct1 = RunExperiment(single, UrsaEjfConfig(), "probe").records[0].jct();
  }
  const double stage1 = jct1 / 5.0;

  ExperimentConfig config = UrsaEjfConfig();
  config.sample_step = 1.0;
  const ExperimentResult result = RunExperiment(workload, config, "ursa-ejf");
  const std::vector<double> expected = ExpectedJctsType1Only(kJobs, jct1, stage1);

  std::printf("Figure 9a: actual vs expected JCT (jct1=%.1f stage1=%.1f)\n", jct1, stage1);
  std::printf("job,actual,expected,ratio\n");
  double worst = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    const double actual = result.records[static_cast<size_t>(i)].jct();
    const double ratio = actual / expected[static_cast<size_t>(i)];
    worst = std::max(worst, ratio);
    std::printf("%d,%.1f,%.1f,%.3f\n", i, actual, expected[static_cast<size_t>(i)], ratio);
  }
  std::printf("worst actual/expected ratio: %.3f (1.0 = ideal)\n", worst);
  std::printf("average CPU SE x UE: %.1f%%\n",
              result.efficiency.se_cpu * result.efficiency.ue_cpu / 100.0);
  std::printf("\nFigure 9b: utilization (first 600 s)\n");
  PrintWindow(result, 0.0, 600.0);
  return 0;
}
