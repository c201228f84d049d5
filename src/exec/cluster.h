// A simulated cluster: N homogeneous workers plus the shared network fabric
// and the metadata store. Mirrors the paper's testbed shape (20 machines,
// 32 vcores, 128 GB RAM, 10 GbE, one disk) by default.
#ifndef SRC_EXEC_CLUSTER_H_
#define SRC_EXEC_CLUSTER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/exec/metadata_store.h"
#include "src/exec/worker.h"
#include "src/net/flow_simulator.h"
#include "src/sim/simulator.h"

namespace ursa {

struct ClusterConfig {
  int num_workers = 20;
  WorkerConfig worker;
  // Only receiver downlinks constrain transfers, the contention model of
  // section 4.2.3.
  double downlink_bytes_per_sec = 10e9 / 8.0; // 10 Gbps.
  // Unused; perfbench's net replay reads it. Goes with the next benchmark change.
  double uplink_bytes_per_sec = 10e9 / 8.0;
  // Must stay false (Cluster CHECKs it); perfbench's net replay reads it.
  // Goes with the next benchmark change.
  bool enforce_uplinks = false;
};

class Cluster {
 public:
  Cluster(Simulator* sim, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }
  Worker& worker(WorkerId id) { return *workers_[static_cast<size_t>(id)]; }
  const Worker& worker(WorkerId id) const { return *workers_[static_cast<size_t>(id)]; }
  FlowSimulator& net() { return net_; }
  MetadataStore& metadata() { return metadata_; }
  Simulator& sim() { return *sim_; }
  const ClusterConfig& config() const { return config_; }

  int total_cores() const;
  double total_memory() const;

  // Makes every worker's utilization trackers and the flow model's
  // per-node receive trackers keep their change histories, which
  // utilization series read. Call before the run.
  void KeepTrackerHistories();
  // Change points those trackers hold; 0 unless histories are kept.
  size_t TrackerHistoryPoints() const;

  // Attaches an event tracer (src/obs) to every worker. Not owned; null
  // detaches.
  void set_tracer(Tracer* tracer) {
    for (auto& w : workers_) {
      w->set_tracer(tracer);
    }
  }

 private:
  Simulator* sim_;
  ClusterConfig config_;
  FlowSimulator net_;
  MetadataStore metadata_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ursa

#endif  // SRC_EXEC_CLUSTER_H_
