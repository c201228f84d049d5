#include "src/exec/cluster.h"

#include <initializer_list>

#include "src/common/logging.h"

namespace ursa {

Cluster::Cluster(Simulator* sim, const ClusterConfig& config)
    : sim_(sim),
      config_(config),
      net_(sim, config.num_workers, config.uplink_bytes_per_sec,
           config.downlink_bytes_per_sec) {
  CHECK_GT(config.num_workers, 0);
  CHECK(!config.enforce_uplinks) << "uplinks are not modelled: shuffles are limited only by "
                                    "the receiver's downlink (section 4.2.3)";
  workers_.reserve(static_cast<size_t>(config.num_workers));
  for (int i = 0; i < config.num_workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(sim, &net_, static_cast<WorkerId>(i), config.worker));
  }
}

double Cluster::total_memory() const {
  return static_cast<double>(size()) * config_.worker.memory_bytes;
}

void Cluster::KeepTrackerHistories() {
  for (auto& w : workers_) {
    w->KeepTrackerHistories();
  }
  net_.KeepRxHistories();
}

size_t Cluster::TrackerHistoryPoints() const {
  size_t points = 0;
  for (const auto& w : workers_) {
    for (const StepTracker* t :
         {&w->cpu_busy_tracker(), &w->cpu_alloc_tracker(), &w->mem_used_tracker(),
          &w->mem_alloc_tracker(), &w->disk_busy_tracker(), &w->net_rx_tracker()}) {
      points += t->num_changes();
    }
  }
  return points;
}

}  // namespace ursa
