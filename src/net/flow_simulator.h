// Flow-level network model with max-min fair bandwidth sharing.
//
// Each node has an uplink and a downlink capacity (bytes/s). A flow moves a
// fixed number of bytes from a source node to a destination node; all active
// flows share the links max-min fairly (progressive filling). Whenever the
// set of active flows changes, remaining bytes are advanced, rates are
// recomputed, and the next flow completion is scheduled on the simulator.
//
// This reproduces the contention behaviour the paper relies on: many
// concurrent shuffles into one receiver split its downlink, slowing all of
// them down and delaying the CPU monotasks that depend on them (section 2,
// "network contention").
//
// Local transfers (src == dst) bypass the links and move at a fixed
// local-copy rate, matching pull-based shuffles that read local partitions.
#ifndef SRC_NET_FLOW_SIMULATOR_H_
#define SRC_NET_FLOW_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time_series.h"
#include "src/sim/simulator.h"

namespace ursa {

using FlowId = uint64_t;
inline constexpr FlowId kInvalidFlowId = 0;

class FlowSimulator {
 public:
  // All nodes start with the given symmetric up/down capacities.
  FlowSimulator(Simulator* sim, int num_nodes, double uplink_bytes_per_sec,
                double downlink_bytes_per_sec);

  // Overrides one node's capacities (e.g. to model heterogeneous clusters).
  void SetNodeBandwidth(int node, double uplink_bytes_per_sec, double downlink_bytes_per_sec);

  // Rate used for src == dst transfers (defaults to 8 GB/s memory copies).
  void set_local_copy_rate(double bytes_per_sec) { local_copy_rate_ = bytes_per_sec; }

  // When false, only downlink capacities constrain flows - the receiver-side
  // contention model of section 4.2.3 ("considers only the network bandwidth
  // at the receiver side"). Defaults to true (full uplink + downlink model).
  void set_enforce_uplinks(bool enforce) {
    enforce_uplinks_ = enforce;
    Reschedule();
  }

  // Starts a flow of `bytes` from `src` to `dst`; `on_complete` fires on the
  // simulator when the last byte arrives. Zero-byte flows complete after an
  // infinitesimal delay (still asynchronously, preserving callback ordering).
  FlowId StartFlow(int src, int dst, double bytes, std::function<void()> on_complete);

  // Cancels an in-flight flow (used on worker failure). The completion
  // callback is dropped. No-op if the flow already completed.
  void CancelFlow(FlowId id);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  size_t active_flows() const { return flows_.size(); }

  // Current aggregate receive rate into `node` (bytes/s).
  double NodeRxRate(int node) const { return nodes_[node].rx_tracker.current(); }

  // Historical receive-rate series per node, for utilization figures.
  const StepTracker& rx_tracker(int node) const { return nodes_[node].rx_tracker; }
  double downlink(int node) const { return nodes_[node].down; }
  double uplink(int node) const { return nodes_[node].up; }

  // Total bytes delivered since construction (all flows).
  double total_bytes_delivered() const { return total_delivered_; }

  // Exposed for testing: recomputes fair-share rates immediately.
  void RecomputeForTest() { Reschedule(); }
  double FlowRateForTest(FlowId id) const;

 private:
  struct Flow {
    FlowId id = kInvalidFlowId;
    int src = 0;
    int dst = 0;
    double remaining = 0.0;
    double rate = 0.0;
    std::function<void()> on_complete;
  };
  struct Node {
    double up = 0.0;
    double down = 0.0;
    StepTracker rx_tracker;
  };

  // Advances `remaining` of all flows to the current simulator time.
  void AdvanceProgress();
  // Runs progressive filling over the current flow set.
  void ComputeRates();
  // Advance + compute + schedule the next completion event.
  void Reschedule();
  void OnNextCompletion();
  void UpdateRxTrackers();
  // The flow with id `id`, or flows_.end().
  std::vector<Flow>::const_iterator FindFlow(FlowId id) const;

  Simulator* sim_;
  std::vector<Node> nodes_;
  // Ordered by FlowId (ids only grow, so StartFlow appends): progressive
  // filling and completion callbacks iterate this vector, so its order
  // decides float accumulation and callback firing order.
  std::vector<Flow> flows_;
  FlowId next_id_ = 1;
  double last_progress_time_ = 0.0;
  EventId completion_event_ = kInvalidEventId;
  double local_copy_rate_ = 8e9;
  bool enforce_uplinks_ = true;
  double total_delivered_ = 0.0;

  // Progressive-filling scratch, reused across ComputeRates calls. Per-node
  // entries are indexed by node; counts are all zero between calls, and a
  // capacity is only meaningful while its count is positive.
  std::vector<double> up_cap_;
  std::vector<double> down_cap_;
  std::vector<int> up_count_;
  std::vector<int> down_count_;
  std::vector<int> up_links_;    // Nodes whose uplink carries an unfrozen flow.
  std::vector<int> down_links_;  // Nodes whose downlink carries an unfrozen flow.
  std::vector<Flow*> unfrozen_;  // In FlowId order.

  // UpdateRxTrackers scratch: per-node receive sums (all zero between calls)
  // and the nodes whose rx tracker currently reads non-zero.
  std::vector<double> rx_;
  std::vector<char> rx_listed_;
  std::vector<int> rx_nodes_;
};

}  // namespace ursa

#endif  // SRC_NET_FLOW_SIMULATOR_H_
