// YARN-like centralized resource manager used by the executor-model
// baselines (Y+S, Y+T, Y+U in section 5).
//
// Jobs request fixed-size containers (cores + memory); the RM grants them at
// heartbeat granularity (default 1 s, matching the paper's configuration) in
// strict FIFO order across jobs. Containers hold their cores and memory
// until explicitly released, which is precisely the coarse-grained
// allocation the paper contrasts with Ursa. A CPU subscription ratio > 1
// lets the RM hand out more logical cores than physically exist (the
// over-subscription experiment of Table 5).
#ifndef SRC_BASELINES_CONTAINER_MANAGER_H_
#define SRC_BASELINES_CONTAINER_MANAGER_H_

#include <deque>
#include <functional>
#include <vector>

#include "src/exec/cluster.h"

namespace ursa {

struct ContainerManagerConfig {
  double cpu_subscription_ratio = 1.0;
};

class ContainerManager {
 public:
  ContainerManager(Simulator* sim, Cluster* cluster, const ContainerManagerConfig& config);

  // Queues a FIFO request for `count` containers of (cores, memory_bytes).
  // `on_grant` fires once per granted container, at heartbeat boundaries.
  void RequestContainers(JobId job, int cores, double memory_bytes, int count,
                         std::function<void(WorkerId)> on_grant);

  // Drops any not-yet-granted containers of this job (dynamic allocation
  // downscale, or job completion).
  void CancelPending(JobId job);

  // Returns a container's resources to the pool.
  void ReleaseContainer(JobId job, WorkerId worker, int cores, double memory_bytes);

 private:
  void EnsureHeartbeat();
  void Heartbeat();
  // Tries to grant one container; returns the worker or kInvalidId.
  WorkerId TryPlace(int cores, double memory_bytes);

  struct Pending {
    JobId job;
    int cores;
    double memory;
    int remaining;
    std::function<void(WorkerId)> on_grant;
  };

  Simulator* sim_;
  Cluster* cluster_;
  ContainerManagerConfig config_;
  double core_capacity_ = 0.0;  // Logical cores per worker (after ratio).
  std::vector<double> used_cores_;
  std::deque<Pending> queue_;
  bool heartbeat_scheduled_ = false;
};

}  // namespace ursa

#endif  // SRC_BASELINES_CONTAINER_MANAGER_H_
