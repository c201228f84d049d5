// Synthetic jobs with expectable performance (section 5.3): 5 stages of
// homogeneous tasks, each stage computing over its input (random-number
// generation) and shuffling the result. Parallelism is one task per
// "usable" core (30 x 20 by default). Type 1 jobs handle twice the data of
// Type 2 jobs; individually their JCTs are ~40 s and ~22 s with ~57% / ~50%
// average CPU utilization, enabling the closed-form expected JCTs of
// Figures 9 and 10.
#ifndef SRC_WORKLOADS_SYNTHETIC_H_
#define SRC_WORKLOADS_SYNTHETIC_H_

#include "src/workloads/workload.h"

namespace ursa {

struct SyntheticJobParams {
  int type = 1;  // 1 or 2.
  int stages = 5;
  int parallelism = 600;  // 30 usable cores x 20 machines.
  // Per-task input bytes for a Type 1 job; Type 2 halves this.
  double type1_task_bytes = 125.0 * 1024 * 1024;
  // CPU byte-equivalents per input byte (tunes the ~5 s compute phase).
  double complexity = 10.0;
};

JobSpec BuildSyntheticJob(const SyntheticJobParams& params, uint64_t seed);

// Setting 1 of section 5.3: `count` Type 1 jobs submitted together.
Workload MakeSyntheticType1Workload(int count, uint64_t seed);
// Setting 2: Type 1 and Type 2 jobs alternating.
Workload MakeSyntheticMixedWorkload(int count_each, uint64_t seed);

// Placement-stress shape of bench_scale (DESIGN.md section 12): workers/4
// (at least 4) single-stage CPU-only jobs of 512 tasks, alternating Type 1
// and Type 2, submitted 0.25 s apart. Task count scales with the cluster so
// per-worker load is the same at every size.
Workload MakePlacementStressWorkload(int workers, uint64_t seed);

// Closed-form expected JCTs under ideal fine-grained sharing with EJF (the
// paper's derivation: jobs pair up, CPU of one overlapping network of the
// other; stage times alternate). `jct1`/`stage1` are the single-job JCT and
// per-stage time of Type 1.
std::vector<double> ExpectedJctsType1Only(int count, double jct1, double stage1);

// Expected JCTs in the ideal fine-grained schedule for arbitrary mixes of
// alternating CPU/network jobs (setting 2 of section 5.3). Model: a job's
// CPU phase occupies the whole cluster (stage parallelism = all cores), so
// at most one job computes at a time; network phases overlap freely. The
// policy picks which ready job computes: EJF by submission index, SRJF by
// least remaining work.
struct AlternatingJobModel {
  int stages = 5;
  double cpu_phase = 5.0;  // Seconds per stage of CPU.
  double net_phase = 3.0;  // Seconds per stage of network.
};
std::vector<double> ExpectedJctsIdealAlternating(const std::vector<AlternatingJobModel>& jobs,
                                                 bool srjf);

}  // namespace ursa

#endif  // SRC_WORKLOADS_SYNTHETIC_H_
