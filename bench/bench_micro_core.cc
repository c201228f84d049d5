// Micro-benchmarks (google-benchmark) for the core infrastructure: event
// queue throughput, max-min flow churn (start + completion), plan compilation,
// monotask queue operations, and scheduler placement throughput. These bound
// the scheduling latency Ursa can sustain (Obj-4: low-latency scheduling).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

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

void BM_FlowChurn(benchmark::State& state) {
  // TPC-H-like shuffle churn in the receiver-side model: ~400 live flows
  // spread over ~235 receivers (~1.7 flows each), each completion starting a
  // replacement. One item is one flow start plus one completion.
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kLiveFlows = 400;
  constexpr int kReceivers = 235;
  Simulator sim;
  FlowSimulator net(&sim, nodes, GbpsToBytesPerSec(10), GbpsToBytesPerSec(10));
  Rng rng(7);
  int64_t completed = 0;
  std::function<void()> start = [&] {
    const int dst = static_cast<int>(rng.UniformInt(uint64_t{kReceivers}));
    int src = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(nodes)));
    if (src == dst) {
      src = (src + 1) % nodes;
    }
    net.StartFlow(src, dst, rng.Uniform(1e7, 1e9), [&] {
      ++completed;
      start();
    });
  };
  for (int i = 0; i < kLiveFlows; ++i) {
    start();
  }
  for (auto _ : state) {
    const int64_t before = completed;
    while (completed == before) {
      benchmark::DoNotOptimize(sim.Step());
    }
  }
  state.SetItemsProcessed(completed);
}
BENCHMARK(BM_FlowChurn)->Arg(400)->Arg(1000);

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
      mt.key.job = static_cast<JobId>(rng.UniformInt(16u));
      mt.job_priority = static_cast<double>(mt.key.job);
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
