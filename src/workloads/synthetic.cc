#include "src/workloads/synthetic.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/units.h"

namespace ursa {

JobSpec BuildSyntheticJob(const SyntheticJobParams& params, uint64_t seed) {
  CHECK(params.type == 1 || params.type == 2);
  JobSpec spec;
  spec.name = "type" + std::to_string(params.type);
  spec.klass = "synthetic";
  spec.seed = seed;
  spec.true_m2i = 1.0;
  spec.default_m2i = 1.5;
  OpGraph& graph = spec.graph;

  const int p = params.parallelism;
  const double task_bytes =
      params.type == 1 ? params.type1_task_bytes : params.type1_task_bytes / 2.0;
  spec.declared_memory_bytes = 1.6 * task_bytes * p;

  std::vector<double> input_sizes(static_cast<size_t>(p), task_bytes);
  const DataId input = graph.CreateExternalData(std::move(input_sizes), "gen-seed");

  OpCostModel cpu_cost;
  cpu_cost.cpu_complexity = params.complexity;
  cpu_cost.output_selectivity = 1.0;

  DataId current = graph.CreateData(p, "stage0-out");
  OpHandle prev = graph.CreateOp(ResourceType::kCpu, "gen0")
                      .Read(input)
                      .Create(current)
                      .SetCost(cpu_cost);
  for (int s = 1; s < params.stages; ++s) {
    const std::string suffix = std::to_string(s);
    const DataId shuffled = graph.CreateData(p, "shuffled" + suffix);
    OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "shuffle" + suffix)
                           .Read(current)
                           .Create(shuffled);
    prev.To(shuffle, DepKind::kSync);
    current = graph.CreateData(p, "stage" + suffix + "-out");
    OpHandle compute = graph.CreateOp(ResourceType::kCpu, "gen" + suffix)
                           .Read(shuffled)
                           .Create(current)
                           .SetCost(cpu_cost);
    shuffle.To(compute, DepKind::kAsync);
    prev = compute;
  }
  graph.Validate();
  return spec;
}

Workload MakeSyntheticType1Workload(int count, uint64_t seed) {
  Workload workload;
  workload.name = "synthetic-type1";
  for (int i = 0; i < count; ++i) {
    SyntheticJobParams params;
    params.type = 1;
    WorkloadJob job;
    job.spec = BuildSyntheticJob(params, seed + static_cast<uint64_t>(i));
    job.spec.name += '-';
    job.spec.name += std::to_string(i);
    job.submit_time = 0.25 * i;  // Closely spaced, strictly ordered.
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

Workload MakeSyntheticMixedWorkload(int count_each, uint64_t seed) {
  Workload workload;
  workload.name = "synthetic-mixed";
  for (int i = 0; i < 2 * count_each; ++i) {
    SyntheticJobParams params;
    params.type = (i % 2 == 0) ? 1 : 2;
    WorkloadJob job;
    job.spec = BuildSyntheticJob(params, seed + static_cast<uint64_t>(i));
    job.spec.name += '-';
    job.spec.name += std::to_string(i);
    job.submit_time = 0.25 * i;
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

Workload MakePlacementStressWorkload(int workers, uint64_t seed) {
  const int jobs = std::max(4, workers / 4);
  Workload workload;
  workload.name = "scale-" + std::to_string(workers);
  for (int i = 0; i < jobs; ++i) {
    SyntheticJobParams params;
    params.type = i % 2 == 0 ? 1 : 2;
    params.stages = 1;  // CPU-only: no shuffle, placement dominates.
    params.parallelism = 512;
    params.type1_task_bytes = 24.0 * 1024 * 1024;
    params.complexity = 4.0;
    WorkloadJob job;
    job.spec = BuildSyntheticJob(params, seed + static_cast<uint64_t>(i) * 7919);
    job.spec.name += '-';
    job.spec.name += std::to_string(i);
    job.submit_time = 0.25 * i;
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

std::vector<double> ExpectedJctsIdealAlternating(const std::vector<AlternatingJobModel>& jobs,
                                                 bool srjf) {
  struct State {
    int stage = 0;          // Completed stages.
    bool in_net = false;    // Currently in the network phase of `stage`.
    double net_end = 0.0;   // When the network phase completes.
    double finish = -1.0;
  };
  std::vector<State> states(jobs.size());
  std::vector<double> remaining(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    remaining[j] = jobs[j].stages * (jobs[j].cpu_phase + jobs[j].net_phase);
  }
  double now = 0.0;
  size_t done = 0;
  while (done < jobs.size()) {
    // Pick the ready-to-compute job by policy.
    int pick = -1;
    for (size_t j = 0; j < jobs.size(); ++j) {
      State& s = states[j];
      if (s.finish >= 0.0 || (s.in_net && s.net_end > now)) {
        continue;
      }
      if (s.in_net && s.net_end <= now) {
        s.in_net = false;
        ++s.stage;
        if (s.stage == jobs[j].stages) {
          s.finish = s.net_end;
          ++done;
          continue;
        }
      }
      if (pick == -1 ||
          (srjf ? remaining[j] < remaining[static_cast<size_t>(pick)] : false)) {
        pick = static_cast<int>(j);  // EJF: first (lowest index) ready job.
      }
    }
    if (done == jobs.size()) {
      break;
    }
    if (pick == -1) {
      // Everyone is in a network phase; jump to the earliest completion.
      double next = 1e18;
      for (size_t j = 0; j < jobs.size(); ++j) {
        if (states[j].finish < 0.0 && states[j].in_net) {
          next = std::min(next, states[j].net_end);
        }
      }
      CHECK(next < 1e18);
      now = next;
      continue;
    }
    // Run the picked job's CPU phase exclusively, then launch its network
    // phase (which overlaps future compute).
    const auto& model = jobs[static_cast<size_t>(pick)];
    now += model.cpu_phase;
    remaining[static_cast<size_t>(pick)] -= model.cpu_phase + model.net_phase;
    State& s = states[static_cast<size_t>(pick)];
    s.in_net = true;
    s.net_end = now + model.net_phase;
  }
  std::vector<double> expected;
  expected.reserve(jobs.size());
  for (const State& s : states) {
    expected.push_back(s.finish);
  }
  return expected;
}

std::vector<double> ExpectedJctsType1Only(int count, double jct1, double stage1) {
  // Paper's ideal-case schedule: jobs run in EJF pairs; within a pair the
  // second job's stages slot into the first job's network phases, finishing
  // one stage time later. Pair k starts when pair k-1's first job finishes.
  std::vector<double> expected;
  expected.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int pair = i / 2;
    const double base = pair * jct1;
    expected.push_back(i % 2 == 0 ? base + jct1 : base + jct1 + stage1);
  }
  return expected;
}

}  // namespace ursa
