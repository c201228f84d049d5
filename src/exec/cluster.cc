#include "src/exec/cluster.h"

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
  WorkerConfig wc = config.worker;
  wc.default_net_rate = config.downlink_bytes_per_sec;
  workers_.reserve(static_cast<size_t>(config.num_workers));
  for (int i = 0; i < config.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(sim, &net_, static_cast<WorkerId>(i), wc));
  }
}

int Cluster::total_cores() const {
  return size() * config_.worker.cores;
}

double Cluster::total_memory() const {
  return static_cast<double>(size()) * config_.worker.memory_bytes;
}

}  // namespace ursa
