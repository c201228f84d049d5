#include "src/driver/experiment.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/common/logging.h"
#include "src/common/wallclock.h"
#include "src/obs/trace.h"

namespace ursa {

namespace {

// Collects per-job, per-stage task completion times from Ursa job managers.
std::vector<std::vector<std::vector<double>>> UrsaStageTimes(const UrsaScheduler& scheduler,
                                                             int num_jobs) {
  std::vector<std::vector<std::vector<double>>> all;
  all.reserve(static_cast<size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) {
    const JobManager* jm = scheduler.job_manager(static_cast<JobId>(j));
    std::vector<std::vector<double>> stages;
    if (jm != nullptr) {
      const ExecutionPlan& plan = jm->job().plan;
      stages.resize(plan.stages().size());
      for (const TaskSpec& task : plan.tasks()) {
        const double t = jm->task_timing(task.id).finish_time;
        if (t >= 0.0) {
          stages[static_cast<size_t>(task.stage)].push_back(t);
        }
      }
    }
    all.push_back(std::move(stages));
  }
  return all;
}

}  // namespace

ExperimentResult RunExperiment(const Workload& workload, const ExperimentConfig& config,
                               const std::string& scheme_name) {
  Simulator sim;
  Cluster cluster(&sim, config.cluster);
  if (config.sample_step > 0.0) {
    cluster.KeepTrackerHistories();
  }
  ExperimentResult result;
  result.scheme = scheme_name;

  std::unique_ptr<UrsaScheduler> ursa_sched;
  std::unique_ptr<ExecutorModelScheduler> exec_sched;
  if (config.kind == SchedulerKind::kUrsa) {
    ursa_sched = std::make_unique<UrsaScheduler>(&sim, &cluster, config.ursa);
  } else {
    exec_sched = std::make_unique<ExecutorModelScheduler>(&sim, &cluster, config.executor,
                                                          config.cm);
  }
  const auto records = [&]() -> const std::vector<JobRecord>& {
    return ursa_sched != nullptr ? ursa_sched->job_records() : exec_sched->job_records();
  };

  // A closed batch's SE/UE integrate over [0, last finish] and are read at
  // that instant: the running integrals cannot look back, and a cancelled
  // speculative copy's gather may still move a worker's net_rx afterwards
  // (DESIGN.md section 12). A finish that leaves no submitted job unresolved
  // is the last one unless more jobs arrive; their finishes read again.
  if (!config.open_loop.enabled) {
    auto on_job_finished = [&] {
      const bool all_resolved = ursa_sched != nullptr ? ursa_sched->AllJobsFinished()
                                                      : exec_sched->AllJobsFinished();
      if (all_resolved) {
        result.efficiency = MetricsCollector::Compute(cluster, records(), sim.Now());
      }
    };
    if (ursa_sched != nullptr) {
      ursa_sched->set_job_finished_listener(on_job_finished);
    } else {
      exec_sched->set_job_finished_listener(on_job_finished);
    }
  }

  std::shared_ptr<Tracer> tracer;
  if (config.trace || !config.trace_out.empty()) {
    TracerConfig tc;
    tc.capacity = config.trace_capacity;
    tc.sample = config.trace_sample;
    tracer = std::make_shared<Tracer>(tc);
    cluster.set_tracer(tracer.get());
    if (ursa_sched != nullptr) {
      ursa_sched->set_tracer(tracer.get());
    }
  }

  std::unique_ptr<FaultInjector> injector;
  if (!config.fault_plan.empty()) {
    if (ursa_sched != nullptr) {
      injector = std::make_unique<FaultInjector>(&sim, &cluster, config.fault_plan,
                                                 ursa_sched->mutable_fault_stats());
      injector->set_scheduler_crash_handler([sp = ursa_sched.get()](double downtime) {
        sp->InjectSchedulerCrash(downtime);
      });
      injector->Arm();
    } else {
      LOG(Warning) << "fault plan ignored: the executor model has no recovery path";
    }
  }

  std::unique_ptr<OpenLoopSource> source;
  std::function<void()> arrive;
  int submitted = 0;
  if (config.open_loop.enabled) {
    // Open-loop serving: arrivals are chained — each one schedules the next
    // gap seconds later, with the gap stretched by the scheduler's current
    // throttle factor (client backoff under backpressure).
    source = std::make_unique<OpenLoopSource>(config.open_loop);
    arrive = [&] {
      if (source->Exhausted()) {
        return;
      }
      auto job = Job::Create(static_cast<JobId>(submitted), source->NextJob());
      ++submitted;
      if (ursa_sched != nullptr) {
        ursa_sched->SubmitJob(std::move(job));
      } else {
        exec_sched->SubmitJob(std::move(job));
      }
      const double throttle =
          ursa_sched != nullptr ? ursa_sched->admission_throttle_factor() : 1.0;
      sim.Schedule(source->NextGap() * throttle, arrive);
    };
    sim.ScheduleAt(0.0, arrive);
  } else {
    // Closed batch: jobs are compiled and submitted at their fixed times.
    submitted = static_cast<int>(workload.jobs.size());
    for (size_t i = 0; i < workload.jobs.size(); ++i) {
      const WorkloadJob& wj = workload.jobs[i];
      sim.ScheduleAt(wj.submit_time, [&, i] {
        auto job = Job::Create(static_cast<JobId>(i), workload.jobs[i].spec);
        if (ursa_sched != nullptr) {
          ursa_sched->SubmitJob(std::move(job));
        } else {
          exec_sched->SubmitJob(std::move(job));
        }
      });
    }
  }

  const WallTimer run_timer;
  result.events_fired = sim.Run(config.time_limit);
  result.wall_seconds = run_timer.ElapsedMicros() / 1e6;
  result.flow_refills = cluster.net().refill_stats();
  const int finished = ursa_sched != nullptr ? ursa_sched->finished_jobs()
                                             : exec_sched->finished_jobs();
  const int shed = ursa_sched != nullptr ? ursa_sched->shed_jobs() : 0;
  // Every submitted job must have resolved: completed, or shed by admission
  // control (open-loop runs under overload).
  CHECK_EQ(finished + shed, submitted)
      << "scheme " << scheme_name << " did not finish workload " << workload.name
      << " within the time limit (likely a scheduling deadlock)";

  result.records = records();
  result.submitted = submitted;
  double last_finish = 0.0;
  for (const JobRecord& record : result.records) {
    last_finish = std::max(last_finish, record.finish_time);
  }
  if (config.open_loop.enabled) {
    // The serving horizon includes trailing sheds/arrivals after the last
    // completion; guard against a run where every job was shed.
    last_finish = std::max({last_finish, sim.Now(), 1e-9});
    result.efficiency = MetricsCollector::Compute(cluster, result.records, last_finish);
  } else {
    CHECK_GT(result.efficiency.makespan, 0.0)
        << "no job of workload " << workload.name << " completed";
    CHECK_EQ(result.efficiency.makespan, last_finish);
  }
  result.tenants = MetricsCollector::ComputeTenantReport(result.records, last_finish);
  if (ursa_sched != nullptr) {
    result.admission = ursa_sched->admission_counters();
    result.scheduler_counters = ursa_sched->scheduler_counters();
  }
  if (config.sample_step > 0.0) {
    result.series = MetricsCollector::Sample(cluster, 0.0, last_finish, config.sample_step);
  }
  result.tracker_history_points = cluster.TrackerHistoryPoints();

  // Straggler analysis.
  std::vector<double> jcts;
  jcts.reserve(result.records.size());
  for (const JobRecord& record : result.records) {
    jcts.push_back(record.jct());
  }
  if (ursa_sched != nullptr) {
    result.straggler_ratio = MetricsCollector::StragglerTimeRatio(
        UrsaStageTimes(*ursa_sched, static_cast<int>(result.records.size())), jcts);
    result.faults = ursa_sched->fault_stats();
  } else {
    auto times = exec_sched->stage_task_times();
    times.resize(result.records.size());
    result.straggler_ratio = MetricsCollector::StragglerTimeRatio(times, jcts);
  }
  if (tracer != nullptr && !config.trace_out.empty()) {
    tracer->WriteChromeTraceFile(config.trace_out);
  }
  result.trace = std::move(tracer);
  return result;
}

ExperimentConfig UrsaEjfConfig() {
  ExperimentConfig config;
  config.kind = SchedulerKind::kUrsa;
  config.ursa.policy = OrderingPolicy::kEjf;
  return config;
}

ExperimentConfig UrsaSrjfConfig() {
  ExperimentConfig config;
  config.kind = SchedulerKind::kUrsa;
  config.ursa.policy = OrderingPolicy::kSrjf;
  return config;
}

ExperimentConfig UrsaOrderingConfig(OrderingPolicy policy) {
  ExperimentConfig config;
  config.kind = SchedulerKind::kUrsa;
  config.ursa.policy = policy;
  return config;
}

ExperimentConfig SparkLikeConfig() {
  ExperimentConfig config;
  config.kind = SchedulerKind::kExecutorModel;
  config.executor.mode = ExecutorMode::kTaskSlots;
  config.executor.executor_cores = 4;
  config.executor.executor_memory_bytes = 8.0 * 1024 * 1024 * 1024;
  config.executor.dynamic_allocation = true;
  config.executor.idle_timeout = 2.0;
  config.executor.task_launch_overhead = 0.02;
  config.executor.job_startup_delay = 1.0;
  return config;
}

ExperimentConfig TezLikeConfig() {
  ExperimentConfig config;
  config.kind = SchedulerKind::kExecutorModel;
  config.executor.mode = ExecutorMode::kTaskSlots;
  config.executor.executor_cores = 2;
  config.executor.executor_memory_bytes = 6.0 * 1024 * 1024 * 1024;
  config.executor.dynamic_allocation = false;  // Container reuse until job end.
  config.executor.task_launch_overhead = 0.15;
  config.executor.job_startup_delay = 1.5;
  return config;
}

ExperimentConfig MonoSparkConfig() {
  ExperimentConfig config;
  config.kind = SchedulerKind::kExecutorModel;
  config.executor.mode = ExecutorMode::kMonotaskQueues;
  config.executor.executor_cores = 4;
  config.executor.executor_memory_bytes = 8.0 * 1024 * 1024 * 1024;
  config.executor.dynamic_allocation = true;
  config.executor.idle_timeout = 2.0;
  config.executor.task_launch_overhead = 0.0;  // Monotasks queue directly.
  config.executor.job_startup_delay = 1.0;
  return config;
}

}  // namespace ursa
