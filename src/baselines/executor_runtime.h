// Executor-model execution baselines (sections 2, 5.1).
//
// ExecutorModelScheduler simulates running the same jobs (same OpGraphs and
// execution plans) under a YARN-style container scheduler plus an
// executor-based runtime, in two modes:
//
//  * kTaskSlots ("Y+S" Spark-like, "Y+T" Tez-like): each executor has
//    `executor_cores` task slots. A task occupies one slot from launch to
//    completion and runs its monotasks *sequentially inside the slot* - in
//    particular the core is held (allocated, idle) while the task fetches
//    shuffle data. Dynamic allocation can grow/shrink the executor pool with
//    an idle timeout (Spark); disabling it holds containers until the job
//    ends (Tez-style container reuse).
//
//  * kMonotaskQueues ("Y+U", the MonoSpark simulation of section 5.1.2):
//    the job's executors run per-resource monotask queues, so cores are only
//    busy while CPU monotasks run - fine-grained sharing *within* the job -
//    but the containers' cores stay allocated to the job regardless, so
//    there is no sharing *across* jobs.
//
// Both modes account allocation at container granularity (via the
// ContainerManager) and actual usage at monotask granularity, which is what
// produces the paper's low UE numbers for these systems.
#ifndef SRC_BASELINES_EXECUTOR_RUNTIME_H_
#define SRC_BASELINES_EXECUTOR_RUNTIME_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/baselines/container_manager.h"
#include "src/dag/job.h"
#include "src/exec/cluster.h"
#include "src/metrics/metrics.h"

namespace ursa {

enum class ExecutorMode : int {
  kTaskSlots = 0,
  kMonotaskQueues = 1,
};

struct ExecutorModelConfig {
  ExecutorMode mode = ExecutorMode::kTaskSlots;
  int executor_cores = 4;
  double executor_memory_bytes = 8.0 * 1024 * 1024 * 1024;
  bool dynamic_allocation = true;
  double idle_timeout = 2.0;
  // Fixed scheduling/deserialization delay before a task starts in a slot.
  double task_launch_overhead = 0.02;
  // Driver / ApplicationMaster startup cost per job.
  double job_startup_delay = 1.0;
  // Per-executor network monotask concurrency in kMonotaskQueues mode.
  int network_concurrency = 2;
};

class ExecutorModelScheduler {
 public:
  ExecutorModelScheduler(Simulator* sim, Cluster* cluster, const ExecutorModelConfig& config,
                         const ContainerManagerConfig& cm_config);
  ~ExecutorModelScheduler();

  void SubmitJob(std::unique_ptr<Job> job);

  bool AllJobsFinished() const { return finished_jobs_ == total_jobs_; }
  int finished_jobs() const { return finished_jobs_; }
  const std::vector<JobRecord>& job_records() const { return records_; }

  // Called at the end of every job finish, at the finish instant.
  void set_job_finished_listener(std::function<void()> listener) {
    job_finished_listener_ = std::move(listener);
  }

  // Per-job, per-stage task completion timestamps (straggler analysis).
  const std::vector<std::vector<std::vector<double>>>& stage_task_times() const {
    return stage_task_times_;
  }

 private:
  class ExecutorJob;

  void OnJobFinished(size_t index);

  Simulator* sim_;
  Cluster* cluster_;
  ExecutorModelConfig config_;
  ContainerManager cm_;
  std::vector<std::unique_ptr<Job>> owned_jobs_;
  std::vector<std::unique_ptr<ExecutorJob>> jobs_;
  std::vector<JobRecord> records_;
  std::vector<std::vector<std::vector<double>>> stage_task_times_;
  int total_jobs_ = 0;
  int finished_jobs_ = 0;
  std::function<void()> job_finished_listener_;
};

}  // namespace ursa

#endif  // SRC_BASELINES_EXECUTOR_RUNTIME_H_
