// Reproduces Figure 1: per-machine resource utilization patterns of single
// jobs on different systems.
//
//   1a LR on Petuum   (BSP runtime)   1b LR on Spark   (Y+S, single job)
//   1c CC on Gemini   (BSP runtime)   1d CC on Spark
//   1e Q14 on Spark                   1f Q14 on Tez
//   1g Q8 on Spark                    1h Q8 on Tez
//
// Paper's shape: ML/graph jobs alternate regularly between near-full CPU and
// network phases (1a-1d); OLAP queries fluctuate irregularly with skewed
// intermediates (1e-1h). Either way, containers sized at peak demand leave
// resources idle in the troughs - the motivation for monotask scheduling.
#include "bench/bench_util.h"
#include "src/baselines/bsp_runtime.h"
#include "src/common/units.h"
#include "src/workloads/graph.h"
#include "src/workloads/ml.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

void RunBsp(const std::string& label, const BspJobConfig& config) {
  Simulator sim;
  Cluster cluster(&sim, ClusterConfig{});
  cluster.KeepTrackerHistories();
  BspRuntime bsp(&sim, &cluster, config, nullptr);
  bsp.Run();
  sim.Run();
  const double end = bsp.finish_time();
  const auto series = MetricsCollector::Sample(cluster, 0.0, end, 0.25);
  PrintSeriesCsv(label, 0.0, 0.25, series.cpu, series.mem, series.net);
}

void RunSingleJob(const std::string& label, JobSpec spec, const ExperimentConfig& base) {
  Workload workload;
  workload.name = label;
  WorkloadJob job;
  job.spec = std::move(spec);
  workload.jobs.push_back(std::move(job));
  ExperimentConfig config = base;
  config.sample_step = 0.5;
  const ExperimentResult result = RunExperiment(workload, config, label);
  PrintWindow(result, 0.0, result.records[0].finish_time);
}

}  // namespace
}  // namespace ursa

int main() {
  using namespace ursa;

  // 1a: LR on Petuum - regular BSP alternation, ~2.5 s compute + sync.
  BspJobConfig petuum;
  petuum.iterations = 12;
  petuum.compute_bytes_per_worker = 2.5 * 32 * 250e6;  // ~2.5 s on 32 cores.
  petuum.sync_bytes_per_worker = 0.6 * GbpsToBytesPerSec(10.0);
  petuum.compute_core_fraction = 0.95;
  petuum.resident_memory_per_worker = 24.0 * kGiB;
  RunBsp("fig1a-lr-petuum", petuum);

  // 1c: CC on Gemini - shorter, slightly lower CPU peaks.
  BspJobConfig gemini;
  gemini.iterations = 10;
  gemini.compute_bytes_per_worker = 1.2 * 32 * 250e6;
  gemini.sync_bytes_per_worker = 0.45 * GbpsToBytesPerSec(10.0);
  gemini.compute_core_fraction = 0.85;
  gemini.resident_memory_per_worker = 16.0 * kGiB;
  RunBsp("fig1c-cc-gemini", gemini);

  // 1b/1d: LR and CC on the Spark-like executor model.
  RunSingleJob("fig1b-lr-spark", BuildMlJob(LrParams(), 11), SparkLikeConfig());
  RunSingleJob("fig1d-cc-spark", BuildGraphJob(CcParams(), 13), SparkLikeConfig());

  // 1e-1h: Q14 and Q8 on Spark-like and Tez-like runtimes.
  RunSingleJob("fig1e-q14-spark", MakeTpchQuery(14, 200.0 * kGiB, 15), SparkLikeConfig());
  RunSingleJob("fig1f-q14-tez", MakeTpchQuery(14, 200.0 * kGiB, 15), TezLikeConfig());
  RunSingleJob("fig1g-q8-spark", MakeTpchQuery(8, 200.0 * kGiB, 17), SparkLikeConfig());
  RunSingleJob("fig1h-q8-tez", MakeTpchQuery(8, 200.0 * kGiB, 17), TezLikeConfig());
  return 0;
}
