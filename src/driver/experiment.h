// Experiment harness: runs a Workload on a simulated cluster under one of
// the scheduling schemes from section 5 and returns the paper's metrics.
// Every bench binary and cluster example goes through this entry point.
//
// Schemes:
//   Ursa(EJF/SRJF, Algorithm1)  - the paper's system (section 4)
//   Ursa + Tetris/Tetris2/Capacity - alternative placement (section 5.1.2)
//   Y+S  - YARN + Spark-like executor model
//   Y+T  - YARN + Tez-like executor model (container reuse, no dyn. alloc)
//   Y+U  - YARN + Ursa execution layer in containers (MonoSpark simulation)
#ifndef SRC_DRIVER_EXPERIMENT_H_
#define SRC_DRIVER_EXPERIMENT_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/executor_runtime.h"
#include "src/exec/cluster.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/metrics.h"
#include "src/net/flow_simulator.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/sim/event_queue.h"
#include "src/workloads/openloop.h"
#include "src/workloads/workload.h"

namespace ursa {

class Tracer;

enum class SchedulerKind : int {
  kUrsa = 0,
  kExecutorModel = 1,
};

struct ExperimentConfig {
  ClusterConfig cluster;
  SchedulerKind kind = SchedulerKind::kUrsa;
  UrsaSchedulerConfig ursa;
  ExecutorModelConfig executor;
  ContainerManagerConfig cm;
  // Safety cap on simulated time; the run aborts (CHECK) if jobs are still
  // unfinished at this point, which indicates a scheduling deadlock.
  double time_limit = 500000.0;
  // When > 0, the result carries a cluster utilization series at this step,
  // and the cluster's utilization trackers keep their change histories.
  double sample_step = 0.0;
  // Chaos plan injected during the run (Ursa scheduler only; the executor
  // model has no recovery path and ignores it with a warning).
  FaultPlan fault_plan;
  // --- Tracing (src/obs, DESIGN.md section 8). ---
  // Tracing activates when `trace` is true or `trace_out` is non-empty and
  // the scheduler is kUrsa (the executor model records nothing); the Tracer
  // is returned in ExperimentResult and, when `trace_out` is set, the
  // Chrome-trace JSON is written there after the run.
  bool trace = false;
  std::string trace_out;
  // Trace every Nth monotask (1 = all); task/tick/fault events always trace.
  int trace_sample = 1;
  // Event ring capacity; the oldest events are dropped past this.
  size_t trace_capacity = size_t{1} << 20;
  // Unused: the binary heap is the only event queue. Kept only because
  // perfbench's set-up timer reads it; goes with the next benchmark change.
  EventQueueKind queue_kind = EventQueueKind::kBinaryHeap;
  // --- Open-loop serving (DESIGN.md section 11). ---
  // When enabled, the `workload` argument of RunExperiment is ignored and
  // jobs arrive continuously from an OpenLoopSource; inter-arrival gaps are
  // stretched by the scheduler's backpressure throttle factor. A run ends
  // when every arrived job resolved (completed or was shed).
  OpenLoopConfig open_loop;
};

struct ExperimentResult {
  std::string scheme;
  EfficiencyReport efficiency;
  std::vector<JobRecord> records;
  MetricsCollector::UtilizationSeries series;
  // Straggler-time-to-JCT ratio (section 5.1.2), percent.
  double straggler_ratio = 0.0;
  // Fault injection / detection / recovery counters (Ursa scheduler only).
  FaultCounters faults;
  // Admission/backpressure counters (zero when admission control is off).
  AdmissionCounters admission;
  // Per-tenant JCT/SLO/goodput breakdown and the Jain fairness index.
  MetricsCollector::TenantReport tenants;
  // Jobs offered to the scheduler (== records.size()); in open-loop mode
  // this is the arrival count, of which `admission.shed` never ran.
  int submitted = 0;
  // Simulator events fired during the run and the host wall-clock seconds
  // the run took — the throughput numerators/denominators for bench_scale.
  uint64_t events_fired = 0;
  double wall_seconds = 0.0;
  // Hot-path counters from the Ursa scheduler (zero for the executor model).
  UrsaScheduler::SchedulerCounters scheduler_counters;
  // Work done by the flow model's per-receiver refills.
  FlowSimulator::RefillStats flow_refills;
  // Change points the cluster's utilization trackers hold at the end: 0
  // unless a series was requested (sample_step > 0).
  size_t tracker_history_points = 0;
  // Non-null when tracing was enabled (config.trace / config.trace_out) on a
  // kUrsa run.
  std::shared_ptr<Tracer> trace;
  double makespan() const { return efficiency.makespan; }
  double avg_jct() const { return efficiency.avg_jct; }
};

ExperimentResult RunExperiment(const Workload& workload, const ExperimentConfig& config,
                               const std::string& scheme_name);

// Preset scheme configurations used across benches.
ExperimentConfig UrsaEjfConfig();
ExperimentConfig UrsaSrjfConfig();
// Ursa under an arbitrary registered ordering policy (registry-driven
// benches; DESIGN.md section 13).
ExperimentConfig UrsaOrderingConfig(OrderingPolicy policy);
ExperimentConfig SparkLikeConfig();   // Y+S
ExperimentConfig TezLikeConfig();     // Y+T
ExperimentConfig MonoSparkConfig();   // Y+U

}  // namespace ursa

#endif  // SRC_DRIVER_EXPERIMENT_H_
