// Reproduces Figure 10 (section 5.3, setting 2): 20 Type 1 and 20 Type 2
// synthetic jobs submitted alternately, under both EJF and SRJF, comparing
// actual JCTs against the expected JCTs of an ideal fine-grained schedule
// (one job's CPU phase at a time, network phases overlapping freely).
//
// Paper's shape: actual JCTs track the expected curve closely for both
// policies; under SRJF the small Type 2 jobs complete much earlier and
// Type 1 jobs later, reshaping the curve without losing throughput.
#include "bench/bench_util.h"
#include "src/workloads/synthetic.h"

int main(int argc, char** argv) {
  if (const int rc = ursa::FlagSet().Parse(argc, argv)) {
    return rc;  // This bench takes no flags.
  }
  using namespace ursa;
  const int kEach = 20;
  const Workload workload = MakeSyntheticMixedWorkload(kEach, 901);

  // Per-type single-job phase profile for the expected-JCT model.
  double jct[2];
  for (int type : {1, 2}) {
    Workload single;
    single.name = "probe";
    WorkloadJob job;
    SyntheticJobParams params;
    params.type = type;
    job.spec = BuildSyntheticJob(params, 901);
    single.jobs.push_back(std::move(job));
    jct[type - 1] = RunExperiment(single, UrsaEjfConfig(), "probe").records[0].jct();
  }

  std::vector<AlternatingJobModel> models;
  for (int i = 0; i < 2 * kEach; ++i) {
    AlternatingJobModel model;
    const int type = (i % 2 == 0) ? 1 : 2;
    // Stage CPU phase dominates; the single-job JCT splits 5 stages into
    // ~62% CPU and ~38% network for both types (see bench_fig8).
    model.stages = 5;
    model.cpu_phase = jct[type - 1] / 5.0 * 0.62;
    model.net_phase = jct[type - 1] / 5.0 * 0.38;
    models.push_back(model);
  }

  for (OrderingPolicy policy : {OrderingPolicy::kEjf, OrderingPolicy::kSrjf}) {
    ExperimentConfig config =
        policy == OrderingPolicy::kEjf ? UrsaEjfConfig() : UrsaSrjfConfig();
    const ExperimentResult result =
        RunExperiment(workload, config, OrderingPolicyName(policy));
    const std::vector<double> expected =
        ExpectedJctsIdealAlternating(models, policy == OrderingPolicy::kSrjf);
    std::printf("Figure 10 (%s): job,type,actual,expected\n", OrderingPolicyName(policy));
    double err = 0.0;
    for (int i = 0; i < 2 * kEach; ++i) {
      const double actual = result.records[static_cast<size_t>(i)].jct();
      std::printf("%d,%d,%.1f,%.1f\n", i, (i % 2 == 0) ? 1 : 2, actual,
                  expected[static_cast<size_t>(i)]);
      err += std::abs(actual - expected[static_cast<size_t>(i)]) /
             std::max(expected[static_cast<size_t>(i)], 1.0);
    }
    std::printf("%s mean |actual-expected|/expected: %.3f\n\n", OrderingPolicyName(policy),
                err / (2 * kEach));
  }
  return 0;
}
