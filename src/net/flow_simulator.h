// Flow-level network model with receiver-side fair sharing.
//
// Each node has a downlink capacity (bytes/s). A flow moves a fixed number
// of bytes from a source node to a destination node, and only the
// receiver's downlink constrains it: the paper's shuffle model "considers
// only the network bandwidth at the receiver side" (section 4.2.3). Every
// downlink is then its own max-min problem, whose answer is an equal split:
// each of the k remote flows into a node moves at down / k, the node's
// share. Whenever the set of active flows changes, remaining bytes are
// advanced, the shares of the receivers the change touched are recomputed,
// and the next flow completion is scheduled on the simulator. DESIGN.md
// section 12 ("Receiver-side flow model") gives the exactness argument;
// Debug builds recount every node's in-flows after each refill and CHECK
// its share and receive rate.
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
  // Work done by the refill, summed over every refill.
  struct RefillStats {
    int64_t refills = 0;        // Refills run (changes that touched a receiver).
    int64_t flows_visited = 0;  // Remote in-flows of the refilled receivers.
    int64_t live_flows = 0;     // Live flows at each refill.
  };

  // All nodes start with the given downlink capacity. The uplink argument is
  // ignored; perfbench's net replay passes it, and it goes with the next
  // benchmark change.
  FlowSimulator(Simulator* sim, int num_nodes, double uplink_bytes_per_sec,
                double downlink_bytes_per_sec);

  // Overrides one node's downlink capacity (e.g. to model heterogeneous
  // clusters). Applies at once to the flows it receives.
  void SetDownlink(int node, double bytes_per_sec);

  // Rate used for src == dst transfers (defaults to 8 GB/s memory copies).
  // Applies at once: in-flight local flows keep their progress so far and
  // move at the new rate from now on.
  void set_local_copy_rate(double bytes_per_sec);

  // CHECK-fails on true: only the receiver side is modelled. perfbench's net
  // replay calls it with false; it goes with the next benchmark change.
  void set_enforce_uplinks(bool enforce);

  // Starts a flow of `bytes` from `src` to `dst`; `on_complete` fires on the
  // simulator when the last byte arrives. Zero-byte flows complete after an
  // infinitesimal delay (still asynchronously, preserving callback ordering).
  FlowId StartFlow(int src, int dst, double bytes, std::function<void()> on_complete);

  // Cancels an in-flight flow and drops its completion callback. No-op if
  // the flow already completed. Nothing in the simulator calls it: a failed
  // worker's in-flight pull runs to completion, and the worker's
  // failure-epoch guard discards it.
  void CancelFlow(FlowId id);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  size_t active_flows() const { return flows_.size(); }

  // Current aggregate receive rate into `node` (bytes/s).
  double NodeRxRate(int node) const { return nodes_[node].rx_tracker.current(); }

  // Receive rate per node over time: a running integral, plus the change
  // history once KeepRxHistories() was called before the first flow.
  const StepTracker& rx_tracker(int node) const { return nodes_[node].rx_tracker; }
  void KeepRxHistories();
  double downlink(int node) const { return nodes_[node].down; }

  // Total bytes delivered since construction (all flows).
  double total_bytes_delivered() const { return total_delivered_; }

  const RefillStats& refill_stats() const { return stats_; }

  // Exposed for testing: the current rate of a live flow.
  double FlowRateForTest(FlowId id) const;

 private:
  struct Flow {
    FlowId id = kInvalidFlowId;
    int src = 0;
    int dst = 0;
    double remaining = 0.0;
  };
  struct Node {
    double down = 0.0;
    int in_flows = 0;     // Remote flows into this node.
    double share = 0.0;   // down / in_flows as of the last refill; 0 without flows.
    bool dirty = false;   // Listed in dirty_.
    StepTracker rx_tracker;
  };

  double Rate(const Flow& flow) const {
    return flow.src == flow.dst ? local_copy_rate_ : nodes_[flow.dst].share;
  }
  // Advances `remaining` of all flows to the current simulator time.
  void AdvanceProgress();
  // Adds `delta` to a remote flow's receiver count and marks the receiver.
  void CountInFlow(const Flow& flow, int delta);
  void MarkDirty(int node);
  // Recomputes the dirty receivers' shares and rx trackers; clears the list.
  void ComputeRates();
  // Debug self-check: every node's count, share and rx rate, from flows_.
  void VerifyShares() const;
  // Advance + refill + schedule the next completion event.
  void Reschedule();
  void OnNextCompletion();
  // The index of the flow with id `id` in flows_, or flows_.size().
  size_t FindFlow(FlowId id) const;

  Simulator* sim_;
  std::vector<Node> nodes_;
  // Ordered by FlowId (ids only grow, so StartFlow appends): progress
  // advance and completion callbacks follow this vector, so its order
  // decides float accumulation and callback firing order.
  std::vector<Flow> flows_;
  // Completion callbacks, parallel to flows_.
  std::vector<std::function<void()>> callbacks_;
  FlowId next_id_ = 1;
  double last_progress_time_ = 0.0;
  EventId completion_event_ = kInvalidEventId;
  double local_copy_rate_ = 8e9;
  double total_delivered_ = 0.0;
  RefillStats stats_;
  // Receivers whose count or capacity changed since the last refill.
  std::vector<int> dirty_;

  // OnNextCompletion scratch: finished flows' callbacks and residues.
  std::vector<std::function<void()>> done_;
  std::vector<double> residues_;
};

}  // namespace ursa

#endif  // SRC_NET_FLOW_SIMULATOR_H_
