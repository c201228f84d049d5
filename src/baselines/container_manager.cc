#include "src/baselines/container_manager.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa {

namespace {

// Container grants happen at heartbeat boundaries, every second (the
// paper's YARN configuration).
constexpr double kHeartbeatInterval = 1.0;

}  // namespace

ContainerManager::ContainerManager(Simulator* sim, Cluster* cluster,
                                   const ContainerManagerConfig& config)
    : sim_(sim), cluster_(cluster), config_(config) {
  CHECK_GE(config_.cpu_subscription_ratio, 1.0);
  core_capacity_ =
      cluster->config().worker.cores * config_.cpu_subscription_ratio;
  used_cores_.assign(static_cast<size_t>(cluster->size()), 0.0);
}

void ContainerManager::RequestContainers(JobId job, int cores, double memory_bytes, int count,
                                         std::function<void(WorkerId)> on_grant) {
  CHECK_GT(cores, 0);
  CHECK_GT(memory_bytes, 0.0);
  if (count <= 0) {
    return;
  }
  queue_.push_back(Pending{job, cores, memory_bytes, count, std::move(on_grant)});
  EnsureHeartbeat();
}

void ContainerManager::CancelPending(JobId job) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->job == job) {
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void ContainerManager::ReleaseContainer([[maybe_unused]] JobId job, WorkerId worker, int cores,
                                        double memory_bytes) {
  used_cores_[static_cast<size_t>(worker)] -= cores;
  CHECK_GE(used_cores_[static_cast<size_t>(worker)], -1e-9);
  used_cores_[static_cast<size_t>(worker)] =
      std::max(0.0, used_cores_[static_cast<size_t>(worker)]);
  Worker& w = cluster_->worker(worker);
  w.ReleaseMemory(memory_bytes);
  w.AddCpuAllocated(-cores);
  EnsureHeartbeat();
}

void ContainerManager::EnsureHeartbeat() {
  if (heartbeat_scheduled_ || queue_.empty()) {
    return;
  }
  heartbeat_scheduled_ = true;
  sim_->Schedule(kHeartbeatInterval, [this] { Heartbeat(); });
}

WorkerId ContainerManager::TryPlace(int cores, double memory_bytes) {
  // Capacity-style: the worker with the most free logical cores that also
  // has the memory.
  WorkerId best = kInvalidId;
  double best_free = -1.0;
  for (int w = 0; w < cluster_->size(); ++w) {
    if (cluster_->worker(w).failed()) {
      continue;
    }
    const double free_cores = core_capacity_ - used_cores_[static_cast<size_t>(w)];
    if (free_cores + 1e-9 < cores) {
      continue;
    }
    if (cluster_->worker(w).free_memory() < memory_bytes) {
      continue;
    }
    if (free_cores > best_free) {
      best_free = free_cores;
      best = static_cast<WorkerId>(w);
    }
  }
  return best;
}

void ContainerManager::Heartbeat() {
  heartbeat_scheduled_ = false;
  // Strict FIFO: grant the head request's containers while they fit; stop at
  // the first container that cannot be placed (YARN FIFO policy).
  while (!queue_.empty()) {
    Pending& head = queue_.front();
    bool granted_one = false;
    while (head.remaining > 0) {
      const WorkerId w = TryPlace(head.cores, head.memory);
      if (w == kInvalidId) {
        break;
      }
      used_cores_[static_cast<size_t>(w)] += head.cores;
      Worker& worker = cluster_->worker(w);
      CHECK(worker.TryAllocateMemory(head.memory));
      worker.AddCpuAllocated(head.cores);
      --head.remaining;
      granted_one = true;
      head.on_grant(w);
    }
    if (head.remaining == 0) {
      queue_.pop_front();
      continue;
    }
    if (!granted_one) {
      break;  // Head blocked; wait for releases.
    }
    break;  // Head partially granted; keep FIFO position.
  }
  EnsureHeartbeat();
}

}  // namespace ursa
