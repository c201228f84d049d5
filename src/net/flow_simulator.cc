#include "src/net/flow_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "src/common/logging.h"

namespace ursa {

namespace {
// Completion times closer together than this are treated as simultaneous to
// avoid event storms from floating-point residue.
constexpr double kTimeEpsilon = 1e-9;

// The fair share of `count` flows on a downlink of `down` bytes/s.
double Share(double down, int count) { return count > 0 ? down / count : 0.0; }

// A receiver's rate: its `count` flows' shares summed one at a time, the
// order in which a per-flow sum adds them.
double RxSum(double share, int count) {
  double rx = 0.0;
  for (int i = 0; i < count; ++i) {
    rx += share;
  }
  return rx;
}
}  // namespace

FlowSimulator::FlowSimulator(Simulator* sim, int num_nodes, double /*uplink_bytes_per_sec*/,
                             double downlink_bytes_per_sec)
    : sim_(sim) {
  CHECK_GT(num_nodes, 0);
  CHECK_GT(downlink_bytes_per_sec, 0.0);
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (Node& node : nodes_) {
    node.down = downlink_bytes_per_sec;
  }
}

void FlowSimulator::SetDownlink(int node, double bytes_per_sec) {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  CHECK_GE(bytes_per_sec, 0.0);
  nodes_[static_cast<size_t>(node)].down = bytes_per_sec;
  MarkDirty(node);
  Reschedule();
}

void FlowSimulator::KeepRxHistories() {
  for (Node& node : nodes_) {
    node.rx_tracker.KeepHistory();
  }
}

void FlowSimulator::set_enforce_uplinks(bool enforce) {
  CHECK(!enforce) << "uplinks are not modelled: shuffles are limited only by the "
                     "receiver's downlink (section 4.2.3)";
}

FlowId FlowSimulator::StartFlow(int src, int dst, double bytes,
                                std::function<void()> on_complete) {
  CHECK_GE(src, 0);
  CHECK_LT(src, num_nodes());
  CHECK_GE(dst, 0);
  CHECK_LT(dst, num_nodes());
  CHECK_GE(bytes, 0.0);
  // Progress up to now is at the old rates; the new flow moves from now on.
  AdvanceProgress();
  const FlowId id = next_id_++;
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.remaining = std::max(bytes, 1.0);  // Zero-byte flows take one "byte".
  CountInFlow(flow, +1);
  flows_.push_back(flow);
  callbacks_.push_back(std::move(on_complete));
  Reschedule();
  return id;
}

size_t FlowSimulator::FindFlow(FlowId id) const {
  auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                             [](const Flow& flow, FlowId key) { return flow.id < key; });
  return it != flows_.end() && it->id == id ? static_cast<size_t>(it - flows_.begin())
                                            : flows_.size();
}

double FlowSimulator::FlowRateForTest(FlowId id) const {
  const size_t i = FindFlow(id);
  CHECK_LT(i, flows_.size());
  return Rate(flows_[i]);
}

void FlowSimulator::AdvanceProgress() {
  const double now = sim_->Now();
  const double dt = now - last_progress_time_;
  if (dt > 0.0) {
    for (Flow& flow : flows_) {
      const double moved = std::min(flow.remaining, Rate(flow) * dt);
      flow.remaining -= moved;
      total_delivered_ += moved;
    }
  }
  last_progress_time_ = now;
}

void FlowSimulator::CountInFlow(const Flow& flow, int delta) {
  if (flow.src != flow.dst) {
    nodes_[static_cast<size_t>(flow.dst)].in_flows += delta;
    MarkDirty(flow.dst);
  }
}

void FlowSimulator::MarkDirty(int node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  if (!n.dirty) {
    n.dirty = true;
    dirty_.push_back(node);
  }
}

void FlowSimulator::ComputeRates() {
  if (dirty_.empty()) {
    return;
  }
  ++stats_.refills;
  stats_.live_flows += static_cast<int64_t>(flows_.size());
  // Shares change only here, so every flow keeps its old rate until the
  // refill. A Set at the tracker's current value would record nothing.
  const double now = sim_->Now();
  for (int d : dirty_) {
    Node& node = nodes_[static_cast<size_t>(d)];
    stats_.flows_visited += node.in_flows;
    node.share = Share(node.down, node.in_flows);
    const double rx = RxSum(node.share, node.in_flows);
    if (rx != node.rx_tracker.current()) {
      node.rx_tracker.Set(now, rx);
    }
    node.dirty = false;
  }
  dirty_.clear();
#ifndef NDEBUG
  VerifyShares();
#endif
}

void FlowSimulator::VerifyShares() const {
  // A count, share or rx rate that is off means a change that did not mark
  // its receiver dirty.
  std::vector<int> count(nodes_.size(), 0);
  for (const Flow& flow : flows_) {
    if (flow.src != flow.dst) {
      ++count[static_cast<size_t>(flow.dst)];
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    CHECK_EQ(node.in_flows, count[i]) << "node " << i;
    CHECK_EQ(node.share, Share(node.down, count[i])) << "node " << i;
    CHECK_EQ(node.rx_tracker.current(), RxSum(node.share, count[i])) << "node " << i;
  }
}

void FlowSimulator::Reschedule() {
  AdvanceProgress();
  if (completion_event_ != kInvalidEventId) {
    sim_->Cancel(completion_event_);
    completion_event_ = kInvalidEventId;
  }
  ComputeRates();
  if (flows_.empty()) {
    return;
  }
  double next_dt = std::numeric_limits<double>::infinity();
  for (const Flow& flow : flows_) {
    const double rate = Rate(flow);
    if (rate > 0.0) {
      next_dt = std::min(next_dt, flow.remaining / rate);
    }
  }
  CHECK(std::isfinite(next_dt)) << "active flows but no positive rate";
  completion_event_ = sim_->Schedule(std::max(next_dt, 0.0), [this] { OnNextCompletion(); });
}

void FlowSimulator::OnNextCompletion() {
  completion_event_ = kInvalidEventId;
  // One pass advances every flow and collects the (numerically) finished
  // ones. Their residues join total_delivered_ after every advance, the
  // order in which a separate advance pass would have summed them. Shares
  // stay as they are until the refill, so every flow moves at its old rate.
  const double now = sim_->Now();
  const double dt = now - last_progress_time_;
  last_progress_time_ = now;
  size_t kept = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    const double rate = Rate(flow);
    if (dt > 0.0) {
      const double moved = std::min(flow.remaining, rate * dt);
      flow.remaining -= moved;
      total_delivered_ += moved;
    }
    const double eta = rate > 0.0 ? flow.remaining / rate
                                  : std::numeric_limits<double>::infinity();
    if (flow.remaining <= 1e-6 || eta <= kTimeEpsilon) {
      residues_.push_back(flow.remaining);
      done_.push_back(std::move(callbacks_[i]));
      CountInFlow(flow, -1);
    } else {
      if (kept != i) {
        flows_[kept] = flow;
        callbacks_[kept] = std::move(callbacks_[i]);
      }
      ++kept;
    }
  }
  for (double residue : residues_) {
    total_delivered_ += residue;
  }
  residues_.clear();
  flows_.resize(kept);
  callbacks_.resize(kept);
  Reschedule();
  // Callbacks run after rates are consistent; they may start new flows.
  for (auto& cb : done_) {
    if (cb) {
      cb();
    }
  }
  done_.clear();
}

}  // namespace ursa
