// Flow-level network model with max-min fair bandwidth sharing.
//
// Each node has an uplink and a downlink capacity (bytes/s). A flow moves a
// fixed number of bytes from a source node to a destination node; all active
// flows share the links max-min fairly (progressive filling). Whenever the
// set of active flows changes, remaining bytes are advanced, rates are
// recomputed, and the next flow completion is scheduled on the simulator.
//
// Max-min over disjoint link sets is separable, so a change refills only the
// connected component of links and flows it touches: the links it marks
// dirty, their flows, and (with uplinks enforced) everything those flows
// share a link with. DESIGN.md section 12 gives the exactness argument; Debug
// builds re-run the fill over every live flow after each refill and CHECK
// that the maintained rates agree.
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
  // Work done by the component-local refill, summed over every refill.
  struct RefillStats {
    int64_t refills = 0;        // Refills run (changes that dirtied a link).
    int64_t flows_visited = 0;  // Flows in the refilled components.
    int64_t live_flows = 0;     // Live flows at each refill.
    // Debug builds only: flows whose maintained rate differs from a fill over
    // every live flow by at most 1e-12 relative (a cross-component near-tie).
    int64_t near_ties = 0;
  };

  // All nodes start with the given symmetric up/down capacities.
  FlowSimulator(Simulator* sim, int num_nodes, double uplink_bytes_per_sec,
                double downlink_bytes_per_sec);

  // Overrides one node's capacities (e.g. to model heterogeneous clusters).
  void SetNodeBandwidth(int node, double uplink_bytes_per_sec, double downlink_bytes_per_sec);

  // Rate used for src == dst transfers (defaults to 8 GB/s memory copies).
  // Applies at once: in-flight local flows keep their progress so far and
  // move at the new rate from now on.
  void set_local_copy_rate(double bytes_per_sec);

  // When false, only downlink capacities constrain flows - the receiver-side
  // contention model of section 4.2.3 ("considers only the network bandwidth
  // at the receiver side"). Defaults to true (full uplink + downlink model).
  void set_enforce_uplinks(bool enforce);

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

  const RefillStats& refill_stats() const { return stats_; }
  int64_t near_ties() const { return stats_.near_ties; }

  // Exposed for testing: the current rate of a live flow.
  double FlowRateForTest(FlowId id) const;

 private:
  struct Flow {
    FlowId id = kInvalidFlowId;
    int src = 0;
    int dst = 0;
    double remaining = 0.0;
    double rate = 0.0;
  };
  struct Node {
    double up = 0.0;
    double down = 0.0;
    StepTracker rx_tracker;
    // Remote flows into / out of this node, in FlowId order.
    std::vector<FlowId> in;
    std::vector<FlowId> out;
  };

  // Advances `remaining` of all flows to the current simulator time.
  void AdvanceProgress();
  // Marks the links a remote flow crosses dirty.
  void MarkDirty(const Flow& flow);
  void MarkDown(int node);
  void MarkUp(int node);
  // Refills the component of the dirty links and updates its receivers' rx
  // trackers; clears the dirty set.
  void ComputeRates();
  // Progressive filling over `flows` (remote, in FlowId order): writes the
  // max-min rate of flows[i] to rates[i].
  void Fill(const std::vector<Flow*>& flows, std::vector<double>* rates);
  // Debug self-check: the maintained rates against a fill over every flow.
  void VerifyRates();
  // Advance + refill + schedule the next completion event.
  void Reschedule();
  void OnNextCompletion();
  // Unlinks a remote flow from its nodes' flow lists and marks its links.
  void Unlink(const Flow& flow);
  // The index of the flow with id `id` in flows_, or flows_.size().
  size_t FindFlow(FlowId id) const;

  Simulator* sim_;
  std::vector<Node> nodes_;
  // Ordered by FlowId (ids only grow, so StartFlow appends): progress
  // advance, refill order and completion callbacks follow this vector, so
  // its order decides float accumulation and callback firing order.
  std::vector<Flow> flows_;
  // Completion callbacks, parallel to flows_.
  std::vector<std::function<void()>> callbacks_;
  FlowId next_id_ = 1;
  double last_progress_time_ = 0.0;
  EventId completion_event_ = kInvalidEventId;
  double local_copy_rate_ = 8e9;
  bool enforce_uplinks_ = true;
  double total_delivered_ = 0.0;
  RefillStats stats_;

  // The component being refilled: its downlinks and uplinks (seeded by the
  // dirty links, grown by ComputeRates) and flows. A node's flag is set
  // exactly while it is listed, so all flags are clear between refills.
  std::vector<int> comp_down_;
  std::vector<int> comp_up_;
  std::vector<char> in_comp_down_;
  std::vector<char> in_comp_up_;
  std::vector<Flow*> comp_flows_;
  std::vector<double> comp_rates_;

  // Progressive-filling scratch, reused across Fill calls. Per-node entries
  // are indexed by node; counts are all zero between calls, and a capacity
  // is only meaningful while its count is positive.
  std::vector<double> up_cap_;
  std::vector<double> down_cap_;
  std::vector<int> up_count_;
  std::vector<int> down_count_;
  std::vector<int> up_links_;        // Nodes whose uplink carries an unfrozen flow.
  std::vector<int> down_links_;      // Nodes whose downlink carries an unfrozen flow.
  std::vector<uint32_t> unfrozen_;   // Indexes into Fill's `flows`, ascending.
  std::vector<double> rx_;           // Per-node receive sums, zero between refills.

  // OnNextCompletion scratch: finished flows' callbacks and residues.
  std::vector<std::function<void()>> done_;
  std::vector<double> residues_;
};

}  // namespace ursa

#endif  // SRC_NET_FLOW_SIMULATOR_H_
