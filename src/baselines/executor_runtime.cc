#include "src/baselines/executor_runtime.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "src/common/logging.h"
#include "src/exec/estimator.h"

namespace ursa {

namespace {

// Upper bound on concurrently-held executors per job.
constexpr int kMaxExecutorsPerJob = 160;

}  // namespace

// Per-job driver: the Spark/Tez "application" or the Y+U job instance.
class ExecutorModelScheduler::ExecutorJob {
 public:
  ExecutorJob(Simulator* sim, Cluster* cluster, ContainerManager* cm,
              const ExecutorModelConfig& config, Job* job, std::function<void()> on_finish)
      : sim_(sim),
        cluster_(cluster),
        cm_(cm),
        config_(config),
        job_(job),
        on_finish_(std::move(on_finish)) {
    tasks_.resize(plan().tasks().size());
    monotasks_.resize(plan().monotasks().size());
    stage_remaining_.resize(plan().stages().size());
    stage_times_.resize(plan().stages().size());
  }

  void Start() {
    cluster_->metadata().AddJob(job_->id, plan());
    sim_->Schedule(config_.job_startup_delay, [this] { Bootstrap(); });
  }

  double cpu_seconds() const { return cpu_seconds_; }
  const std::vector<std::vector<double>>& stage_times() const { return stage_times_; }
  bool finished() const { return finished_; }

 private:
  struct TaskRuntime {
    int remaining_async = 0;
    int remaining_sync = 0;
    int remaining_monotasks = 0;
    int executor = -1;  // Index into executors_.
    bool ready = false;
    bool done = false;
    double actual_memory = 0.0;
    TaskUsage usage;
  };
  struct MonotaskRuntime {
    int remaining_deps = 0;
    double input_bytes = 0.0;
  };
  struct Executor {
    WorkerId worker = kInvalidId;
    bool released = false;
    int running_tasks = 0;
    int busy_slots = 0;  // kTaskSlots.
    // kMonotaskQueues per-executor queues and occupancy.
    int busy_cores = 0;
    int active_net = 0;
    int active_disk = 0;
    std::multimap<double, MonotaskId> cpu_q;
    std::multimap<double, MonotaskId> net_q;
    std::multimap<double, MonotaskId> disk_q;
    EventId idle_event = kInvalidEventId;
  };

  const ExecutionPlan& plan() const { return job_->plan; }

  void Bootstrap() {
    for (const StageSpec& stage : plan().stages()) {
      stage_remaining_[static_cast<size_t>(stage.id)] = stage.num_tasks;
    }
    for (const MonotaskSpec& mt : plan().monotasks()) {
      monotasks_[static_cast<size_t>(mt.id)].remaining_deps =
          static_cast<int>(mt.intask_deps.size());
    }
    for (const TaskSpec& task : plan().tasks()) {
      TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
      rt.remaining_async = static_cast<int>(task.async_parents.size());
      rt.remaining_sync = static_cast<int>(task.sync_parent_stages.size());
      rt.remaining_monotasks = static_cast<int>(task.monotasks.size());
    }
    for (const TaskSpec& task : plan().tasks()) {
      const TaskRuntime& rt = tasks_[static_cast<size_t>(task.id)];
      if (rt.remaining_async == 0 && rt.remaining_sync == 0) {
        MarkReady(task.id);
      }
    }
    UpdateExecutorTarget();
    AssignWork();
  }

  void MarkReady(TaskId t) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
    rt.ready = true;
    rt.usage = UsageEstimator::EstimateTask(*job_, t, cluster_->metadata(), 0.0);
    ready_.push_back(t);
  }

  int MaxStageWidth() const {
    int width = 1;
    for (const StageSpec& stage : plan().stages()) {
      width = std::max(width, stage.num_tasks);
    }
    return width;
  }

  void UpdateExecutorTarget() {
    if (finished_) {
      return;
    }
    int desired;
    if (config_.dynamic_allocation) {
      const int outstanding = static_cast<int>(ready_.size()) + running_tasks_;
      desired = static_cast<int>(
          std::ceil(static_cast<double>(outstanding) / config_.executor_cores));
    } else {
      // Container reuse (Tez-like): size the pool once for the widest stage.
      desired = static_cast<int>(std::ceil(static_cast<double>(MaxStageWidth()) /
                                           config_.executor_cores));
    }
    desired = std::min(desired, kMaxExecutorsPerJob);
    const int have = held_executors_ + pending_grants_;
    if (desired > have) {
      const int want = desired - have;
      pending_grants_ += want;
      cm_->RequestContainers(job_->id, config_.executor_cores,
                             config_.executor_memory_bytes, want,
                             [this](WorkerId w) { OnContainerGranted(w); });
    }
  }

  void OnContainerGranted(WorkerId worker) {
    --pending_grants_;
    if (finished_) {
      cm_->ReleaseContainer(job_->id, worker, config_.executor_cores,
                            config_.executor_memory_bytes);
      return;
    }
    ++held_executors_;
    Executor exec;
    exec.worker = worker;
    executors_.push_back(std::move(exec));
    AssignWork();
  }

  // Least-loaded live executor with capacity (mode-dependent); -1 if none.
  int PickExecutor() {
    int best = -1;
    double best_load = 0.0;
    for (size_t e = 0; e < executors_.size(); ++e) {
      Executor& exec = executors_[e];
      if (exec.released) {
        continue;
      }
      if (config_.mode == ExecutorMode::kTaskSlots &&
          exec.busy_slots >= config_.executor_cores) {
        continue;
      }
      // Monotask mode has no slot limit, but binding unbounded work to one
      // executor defeats dynamic allocation; keep a bounded local queue.
      if (config_.mode == ExecutorMode::kMonotaskQueues &&
          exec.running_tasks >= 2 * config_.executor_cores) {
        continue;
      }
      const double load = config_.mode == ExecutorMode::kTaskSlots
                              ? exec.busy_slots
                              : exec.running_tasks;
      if (best == -1 || load < best_load) {
        best = static_cast<int>(e);
        best_load = load;
      }
    }
    return best;
  }

  void AssignWork() {
    while (!ready_.empty()) {
      const int e = PickExecutor();
      if (e == -1) {
        break;
      }
      const TaskId t = ready_.front();
      ready_.pop_front();
      StartTask(t, e);
    }
    UpdateExecutorTarget();
    CheckIdleExecutors();
  }

  void StartTask(TaskId t, int exec_index) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
    Executor& exec = executors_[static_cast<size_t>(exec_index)];
    rt.executor = exec_index;
    rt.ready = false;
    ++exec.running_tasks;
    ++running_tasks_;
    CancelIdle(exec);
    rt.actual_memory =
        std::min(job_->spec.true_m2i * rt.usage.input_bytes, config_.executor_memory_bytes);
    cluster_->worker(exec.worker).AddActualMemoryUse(rt.actual_memory);
    if (config_.mode == ExecutorMode::kTaskSlots) {
      ++exec.busy_slots;
      // Launch overhead, then the task thread runs its monotasks
      // sequentially (plan order is topological).
      sim_->Schedule(config_.task_launch_overhead,
                     [this, t] { RunNextMonotaskInSlot(t, 0); });
    } else {
      // Y+U: stream root monotasks into the executor's per-resource queues.
      for (MonotaskId m : plan().task(t).monotasks) {
        if (monotasks_[static_cast<size_t>(m)].remaining_deps == 0) {
          EnqueueMonotask(m, exec_index);
        }
      }
    }
  }

  // ---- kTaskSlots path: sequential in-slot execution. ----
  void RunNextMonotaskInSlot(TaskId t, size_t mono_pos) {
    const TaskSpec& spec = plan().task(t);
    if (mono_pos >= spec.monotasks.size()) {
      FinishTask(t);
      return;
    }
    const MonotaskId m = spec.monotasks[mono_pos];
    ExecuteMonotask(m, tasks_[static_cast<size_t>(t)].executor,
                    [this, t, mono_pos] { RunNextMonotaskInSlot(t, mono_pos + 1); },
                    /*own_core=*/true);
  }

  // ---- kMonotaskQueues path. ----
  void EnqueueMonotask(MonotaskId m, int exec_index) {
    Executor& exec = executors_[static_cast<size_t>(exec_index)];
    MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    mrt.input_bytes =
        UsageEstimator::MonotaskInputBytes(*job_, m, cluster_->metadata(), nullptr);
    const MonotaskSpec& mt = plan().monotask(m);
    switch (mt.type) {
      case ResourceType::kCpu:
        exec.cpu_q.emplace(-mrt.input_bytes, m);  // Largest first.
        break;
      case ResourceType::kNetwork:
        exec.net_q.emplace(mrt.input_bytes, m);  // Smallest first.
        break;
      case ResourceType::kDisk:
        exec.disk_q.emplace(mrt.input_bytes, m);
        break;
    }
    PumpExecutor(exec_index);
  }

  void PumpExecutor(int exec_index) {
    Executor& exec = executors_[static_cast<size_t>(exec_index)];
    while (exec.busy_cores < config_.executor_cores && !exec.cpu_q.empty()) {
      const MonotaskId m = exec.cpu_q.begin()->second;
      exec.cpu_q.erase(exec.cpu_q.begin());
      ++exec.busy_cores;
      ExecuteMonotask(m, exec_index,
                      [this, exec_index] {
                        --executors_[static_cast<size_t>(exec_index)].busy_cores;
                        PumpExecutor(exec_index);
                      },
                      /*own_core=*/false);
    }
    while (exec.active_net < config_.network_concurrency && !exec.net_q.empty()) {
      const MonotaskId m = exec.net_q.begin()->second;
      exec.net_q.erase(exec.net_q.begin());
      ++exec.active_net;
      ExecuteMonotask(m, exec_index,
                      [this, exec_index] {
                        --executors_[static_cast<size_t>(exec_index)].active_net;
                        PumpExecutor(exec_index);
                      },
                      /*own_core=*/false);
    }
    while (exec.active_disk < 1 && !exec.disk_q.empty()) {
      const MonotaskId m = exec.disk_q.begin()->second;
      exec.disk_q.erase(exec.disk_q.begin());
      ++exec.active_disk;
      ExecuteMonotask(m, exec_index,
                      [this, exec_index] {
                        --executors_[static_cast<size_t>(exec_index)].active_disk;
                        PumpExecutor(exec_index);
                      },
                      /*own_core=*/false);
    }
  }

  // ---- Shared monotask execution. ----
  // `own_core` marks the kTaskSlots mode where the slot's core is held for
  // the whole task; the core is *busy* only during CPU compute either way.
  void ExecuteMonotask(MonotaskId m, int exec_index, std::function<void()> done,
                       [[maybe_unused]] bool own_core) {
    MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    const MonotaskSpec& mt = plan().monotask(m);
    const CollapsedOp& cop = plan().cop(mt.cop);
    Executor& exec = executors_[static_cast<size_t>(exec_index)];
    Worker& worker = cluster_->worker(exec.worker);
    if (mrt.input_bytes == 0.0) {
      mrt.input_bytes =
          UsageEstimator::MonotaskInputBytes(*job_, m, cluster_->metadata(), nullptr);
    }
    auto complete = [this, m, done = std::move(done)] {
      OnMonotaskComplete(m);
      done();
    };
    switch (mt.type) {
      case ResourceType::kCpu: {
        const double work = cop.cost.fixed_cpu_work + mrt.input_bytes * cop.cost.cpu_complexity;
        const double duration = work / worker.config().cpu_byte_rate;
        cpu_seconds_ += duration;
        worker.AddCpuBusy(1.0);
        sim_->Schedule(duration, [&worker, complete] {
          worker.AddCpuBusy(-1.0);
          complete();
        });
        break;
      }
      case ResourceType::kDisk: {
        const double duration = mrt.input_bytes / worker.config().disk_bytes_per_sec;
        worker.AddDiskBusy(1.0);
        sim_->Schedule(duration, [&worker, complete] {
          worker.AddDiskBusy(-1.0);
          complete();
        });
        break;
      }
      case ResourceType::kNetwork: {
        // Same receiver-side aggregation as Worker::Execute.
        const auto pulls = UsageEstimator::ResolvePulls(*job_, m, cluster_->metadata());
        double remote_bytes = 0.0;
        double local_bytes = 0.0;
        WorkerId biggest_src = exec.worker;
        double biggest = -1.0;
        for (const auto& pull : pulls) {
          if (pull.src == exec.worker) {
            local_bytes += pull.bytes;
          } else {
            remote_bytes += pull.bytes;
            if (pull.bytes > biggest) {
              biggest = pull.bytes;
              biggest_src = pull.src;
            }
          }
        }
        if (remote_bytes > 0.0) {
          cluster_->net().StartFlow(biggest_src, exec.worker, remote_bytes + local_bytes,
                                    complete);
        } else if (local_bytes > 0.0) {
          cluster_->net().StartFlow(exec.worker, exec.worker, local_bytes, complete);
        } else {
          sim_->Schedule(0.0, complete);
        }
        break;
      }
    }
  }

  void OnMonotaskComplete(MonotaskId m) {
    MonotaskRuntime& mrt = monotasks_[static_cast<size_t>(m)];
    const MonotaskSpec& mt = plan().monotask(m);
    TaskRuntime& trt = tasks_[static_cast<size_t>(mt.task)];
    const Executor& exec = executors_[static_cast<size_t>(trt.executor)];
    for (const OutputRecord& rec :
         UsageEstimator::ComputeOutputs(*job_, m, mrt.input_bytes)) {
      cluster_->metadata().Put(job_->id, rec.data, rec.partition, rec.bytes, exec.worker);
    }
    if (config_.mode == ExecutorMode::kMonotaskQueues) {
      for (MonotaskId dep : mt.intask_dependents) {
        MonotaskRuntime& drt = monotasks_[static_cast<size_t>(dep)];
        if (--drt.remaining_deps == 0) {
          EnqueueMonotask(dep, trt.executor);
        }
      }
      if (--trt.remaining_monotasks == 0) {
        FinishTask(mt.task);
      }
    }
    // kTaskSlots: sequencing handled by RunNextMonotaskInSlot.
  }

  void FinishTask(TaskId t) {
    TaskRuntime& rt = tasks_[static_cast<size_t>(t)];
    Executor& exec = executors_[static_cast<size_t>(rt.executor)];
    rt.done = true;
    --exec.running_tasks;
    --running_tasks_;
    if (config_.mode == ExecutorMode::kTaskSlots) {
      --exec.busy_slots;
    }
    cluster_->worker(exec.worker).AddActualMemoryUse(-rt.actual_memory);
    const TaskSpec& spec = plan().task(t);
    stage_times_[static_cast<size_t>(spec.stage)].push_back(sim_->Now());
    ++completed_tasks_;
    // Dependency propagation (mirrors the job manager).
    for (TaskId child : spec.async_children) {
      TaskRuntime& crt = tasks_[static_cast<size_t>(child)];
      if (--crt.remaining_async == 0 && crt.remaining_sync == 0) {
        MarkReady(child);
      }
    }
    if (--stage_remaining_[static_cast<size_t>(spec.stage)] == 0) {
      for (StageId cs : plan().stage(spec.stage).sync_child_stages) {
        for (TaskId child : plan().stage(cs).tasks) {
          TaskRuntime& crt = tasks_[static_cast<size_t>(child)];
          if (--crt.remaining_sync == 0 && crt.remaining_async == 0) {
            MarkReady(child);
          }
        }
      }
    }
    if (completed_tasks_ == static_cast<int>(plan().tasks().size())) {
      FinishJob();
      return;
    }
    AssignWork();
  }

  void CancelIdle(Executor& exec) {
    if (exec.idle_event != kInvalidEventId) {
      sim_->Cancel(exec.idle_event);
      exec.idle_event = kInvalidEventId;
    }
  }

  void CheckIdleExecutors() {
    if (!config_.dynamic_allocation || finished_) {
      return;
    }
    for (size_t e = 0; e < executors_.size(); ++e) {
      Executor& exec = executors_[e];
      if (exec.released || exec.running_tasks > 0 || exec.idle_event != kInvalidEventId) {
        continue;
      }
      if (!ready_.empty()) {
        continue;  // Will be assigned work right away.
      }
      exec.idle_event = sim_->Schedule(config_.idle_timeout, [this, e] {
        Executor& ex = executors_[e];
        ex.idle_event = kInvalidEventId;
        if (!ex.released && ex.running_tasks == 0 && ready_.empty()) {
          ReleaseExecutor(ex);
        }
      });
    }
  }

  void ReleaseExecutor(Executor& exec) {
    CHECK(!exec.released);
    exec.released = true;
    --held_executors_;
    cm_->ReleaseContainer(job_->id, exec.worker, config_.executor_cores,
                          config_.executor_memory_bytes);
  }

  void FinishJob() {
    finished_ = true;
    cm_->CancelPending(job_->id);
    pending_grants_ = 0;
    for (Executor& exec : executors_) {
      CancelIdle(exec);
      if (!exec.released) {
        ReleaseExecutor(exec);
      }
    }
    cluster_->metadata().DropJob(job_->id);
    on_finish_();
  }

  Simulator* sim_;
  Cluster* cluster_;
  ContainerManager* cm_;
  ExecutorModelConfig config_;
  Job* job_;
  std::function<void()> on_finish_;

  std::vector<TaskRuntime> tasks_;
  std::vector<MonotaskRuntime> monotasks_;
  std::vector<int> stage_remaining_;
  std::vector<std::vector<double>> stage_times_;
  std::deque<TaskId> ready_;
  std::vector<Executor> executors_;
  int held_executors_ = 0;
  int pending_grants_ = 0;
  int running_tasks_ = 0;
  int completed_tasks_ = 0;
  double cpu_seconds_ = 0.0;
  bool finished_ = false;
};

ExecutorModelScheduler::ExecutorModelScheduler(Simulator* sim, Cluster* cluster,
                                               const ExecutorModelConfig& config,
                                               const ContainerManagerConfig& cm_config)
    : sim_(sim), cluster_(cluster), config_(config), cm_(sim, cluster, cm_config) {}

ExecutorModelScheduler::~ExecutorModelScheduler() = default;

void ExecutorModelScheduler::SubmitJob(std::unique_ptr<Job> job) {
  job->submit_time = sim_->Now();
  JobRecord record;
  record.id = job->id;
  record.name = job->spec.name;
  record.klass = job->spec.klass;
  record.submit_time = sim_->Now();
  record.admit_time = sim_->Now();
  records_.push_back(std::move(record));
  const size_t index = jobs_.size();
  owned_jobs_.push_back(std::move(job));
  jobs_.push_back(std::make_unique<ExecutorJob>(sim_, cluster_, &cm_, config_,
                                                owned_jobs_.back().get(),
                                                [this, index] { OnJobFinished(index); }));
  ++total_jobs_;
  jobs_.back()->Start();
}

void ExecutorModelScheduler::OnJobFinished(size_t index) {
  ++finished_jobs_;
  JobRecord& record = records_[index];
  record.finish_time = sim_->Now();
  record.cpu_seconds = jobs_[index]->cpu_seconds();
  if (stage_task_times_.size() <= index) {
    stage_task_times_.resize(index + 1);
  }
  stage_task_times_[index] = jobs_[index]->stage_times();
  if (job_finished_listener_) {
    job_finished_listener_();
  }
}

}  // namespace ursa
