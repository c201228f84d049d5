// Micro-benchmarks (google-benchmark) for the core infrastructure: event
// queue throughput, max-min flow rate recomputation, plan compilation,
// monotask queue operations, and scheduler placement throughput. These bound
// the scheduling latency Ursa can sustain (Obj-4: low-latency scheduling).
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/dag/plan.h"
#include "src/driver/experiment.h"
#include "src/exec/monotask_queue.h"
#include "src/net/flow_simulator.h"
#include "src/sim/simulator.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < n; ++i) {
      queue.Push(static_cast<double>((i * 7919) % n), [] {});
    }
    while (!queue.Empty()) {
      benchmark::DoNotOptimize(queue.Pop().when);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_FlowRateRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  Simulator sim;
  FlowSimulator net(&sim, 20, GbpsToBytesPerSec(10), GbpsToBytesPerSec(10));
  Rng rng(7);
  for (int i = 0; i < flows; ++i) {
    net.StartFlow(static_cast<int>(rng.UniformInt(20u)),
                  static_cast<int>(rng.UniformInt(20u)), 1e12, nullptr);
  }
  for (auto _ : state) {
    net.RecomputeForTest();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowRateRecompute)->Arg(64)->Arg(512);

void BM_PlanCompile(benchmark::State& state) {
  const JobSpec spec = MakeTpchQuery(8, 500.0 * kGiB, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutionPlan::Build(spec.graph, 3).monotasks().size());
  }
}
BENCHMARK(BM_PlanCompile);

void BM_MonotaskQueueOrdered(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    MonotaskQueue queue;
    for (int i = 0; i < n; ++i) {
      RunnableMonotask mt;
      mt.job = static_cast<JobId>(rng.UniformInt(16u));
      mt.job_priority = static_cast<double>(mt.job);
      mt.intra_key = rng.Uniform(0.0, 1e9);
      mt.input_bytes = 1.0;
      queue.Push(std::move(mt));
    }
    while (!queue.Empty()) {
      benchmark::DoNotOptimize(queue.Pop().input_bytes);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MonotaskQueueOrdered)->Arg(1024)->Arg(8192);

void BM_SchedulerTickTpch(benchmark::State& state) {
  // Wall-clock cost of simulating a 10-job TPC-H burst end to end: bounds
  // the scheduler-side overhead per placement decision.
  TpchWorkloadConfig wc;
  wc.num_jobs = 10;
  wc.submit_interval = 1.0;
  wc.seed = 5;
  const Workload workload = MakeTpchWorkload(wc);
  for (auto _ : state) {
    const ExperimentResult result = RunExperiment(workload, UrsaEjfConfig(), "micro");
    benchmark::DoNotOptimize(result.makespan());
  }
}
BENCHMARK(BM_SchedulerTickTpch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ursa

BENCHMARK_MAIN();
