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
}  // namespace

FlowSimulator::FlowSimulator(Simulator* sim, int num_nodes, double uplink_bytes_per_sec,
                             double downlink_bytes_per_sec)
    : sim_(sim) {
  CHECK_GT(num_nodes, 0);
  CHECK_GT(uplink_bytes_per_sec, 0.0);
  CHECK_GT(downlink_bytes_per_sec, 0.0);
  const size_t n = static_cast<size_t>(num_nodes);
  nodes_.resize(n);
  for (auto& node : nodes_) {
    node.up = uplink_bytes_per_sec;
    node.down = downlink_bytes_per_sec;
  }
  up_cap_.resize(n);
  down_cap_.resize(n);
  up_count_.resize(n, 0);
  down_count_.resize(n, 0);
  rx_.resize(n, 0.0);
  rx_listed_.resize(n, 0);
}

void FlowSimulator::SetNodeBandwidth(int node, double uplink_bytes_per_sec,
                                     double downlink_bytes_per_sec) {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  nodes_[static_cast<size_t>(node)].up = uplink_bytes_per_sec;
  nodes_[static_cast<size_t>(node)].down = downlink_bytes_per_sec;
  Reschedule();
}

FlowId FlowSimulator::StartFlow(int src, int dst, double bytes,
                                std::function<void()> on_complete) {
  CHECK_GE(src, 0);
  CHECK_LT(src, num_nodes());
  CHECK_GE(dst, 0);
  CHECK_LT(dst, num_nodes());
  CHECK_GE(bytes, 0.0);
  const FlowId id = next_id_++;
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.remaining = std::max(bytes, 1.0);  // Zero-byte flows take one "byte".
  flow.on_complete = std::move(on_complete);
  flows_.push_back(std::move(flow));
  Reschedule();
  return id;
}

std::vector<FlowSimulator::Flow>::const_iterator FlowSimulator::FindFlow(FlowId id) const {
  auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                             [](const Flow& flow, FlowId key) { return flow.id < key; });
  return it != flows_.end() && it->id == id ? it : flows_.end();
}

void FlowSimulator::CancelFlow(FlowId id) {
  auto it = FindFlow(id);
  if (it == flows_.end()) {
    return;
  }
  AdvanceProgress();
  flows_.erase(it);
  Reschedule();
}

double FlowSimulator::FlowRateForTest(FlowId id) const {
  auto it = FindFlow(id);
  CHECK(it != flows_.end());
  return it->rate;
}

void FlowSimulator::AdvanceProgress() {
  const double now = sim_->Now();
  const double dt = now - last_progress_time_;
  if (dt > 0.0) {
    for (Flow& flow : flows_) {
      const double moved = std::min(flow.remaining, flow.rate * dt);
      flow.remaining -= moved;
      total_delivered_ += moved;
    }
  }
  last_progress_time_ = now;
}

void FlowSimulator::ComputeRates() {
  // Progressive filling: repeatedly find the most-contended link, freeze its
  // flows at the fair share, remove the capacity, iterate. Each round scans
  // only the links that still carry an unfrozen flow and only the unfrozen
  // flows, in FlowId order, so flows freeze and capacities drop in the same
  // order as a scan over every node and flow would give.
  unfrozen_.clear();
  up_links_.clear();
  down_links_.clear();
  for (Flow& flow : flows_) {
    if (flow.src == flow.dst) {
      flow.rate = local_copy_rate_;
      continue;
    }
    flow.rate = 0.0;
    unfrozen_.push_back(&flow);
    const size_t s = static_cast<size_t>(flow.src);
    const size_t d = static_cast<size_t>(flow.dst);
    if (up_count_[s]++ == 0) {
      up_cap_[s] = nodes_[s].up;
      up_links_.push_back(flow.src);
    }
    if (down_count_[d]++ == 0) {
      down_cap_[d] = nodes_[d].down;
      down_links_.push_back(flow.dst);
    }
  }

  while (!unfrozen_.empty()) {
    // Find the bottleneck link: the link with minimal capacity per unfrozen
    // flow crossing it. A minimum does not depend on scan order.
    double min_share = std::numeric_limits<double>::infinity();
    if (enforce_uplinks_) {
      for (int s : up_links_) {
        min_share = std::min(min_share, up_cap_[static_cast<size_t>(s)] /
                                            up_count_[static_cast<size_t>(s)]);
      }
    }
    for (int d : down_links_) {
      min_share = std::min(min_share, down_cap_[static_cast<size_t>(d)] /
                                          down_count_[static_cast<size_t>(d)]);
    }
    CHECK(std::isfinite(min_share));
    // Freeze every unfrozen flow crossing a bottleneck link at min_share.
    size_t kept = 0;
    for (Flow* flow : unfrozen_) {
      const size_t s = static_cast<size_t>(flow->src);
      const size_t d = static_cast<size_t>(flow->dst);
      const double up_share = enforce_uplinks_
                                  ? up_cap_[s] / up_count_[s]
                                  : std::numeric_limits<double>::infinity();
      const double down_share = down_cap_[d] / down_count_[d];
      if (std::min(up_share, down_share) <= min_share * (1.0 + 1e-12)) {
        flow->rate = min_share;
        up_cap_[s] -= min_share;
        down_cap_[d] -= min_share;
        --up_count_[s];
        --down_count_[d];
      } else {
        unfrozen_[kept++] = flow;
      }
    }
    CHECK(kept < unfrozen_.size()) << "progressive filling failed to converge";
    unfrozen_.resize(kept);
    std::erase_if(up_links_, [this](int s) { return up_count_[static_cast<size_t>(s)] == 0; });
    std::erase_if(down_links_,
                  [this](int d) { return down_count_[static_cast<size_t>(d)] == 0; });
  }
}

void FlowSimulator::Reschedule() {
  AdvanceProgress();
  if (completion_event_ != kInvalidEventId) {
    sim_->Cancel(completion_event_);
    completion_event_ = kInvalidEventId;
  }
  if (flows_.empty()) {
    UpdateRxTrackers();
    return;
  }
  ComputeRates();
  UpdateRxTrackers();
  double next_dt = std::numeric_limits<double>::infinity();
  for (const Flow& flow : flows_) {
    if (flow.rate > 0.0) {
      next_dt = std::min(next_dt, flow.remaining / flow.rate);
    }
  }
  CHECK(std::isfinite(next_dt)) << "active flows but no positive rate";
  completion_event_ = sim_->Schedule(std::max(next_dt, 0.0), [this] { OnNextCompletion(); });
}

void FlowSimulator::OnNextCompletion() {
  completion_event_ = kInvalidEventId;
  AdvanceProgress();
  // Collect every flow that has (numerically) finished.
  std::vector<std::function<void()>> done;
  size_t kept = 0;
  for (Flow& flow : flows_) {
    const double eta = flow.rate > 0.0 ? flow.remaining / flow.rate
                                       : std::numeric_limits<double>::infinity();
    if (flow.remaining <= 1e-6 || eta <= kTimeEpsilon) {
      total_delivered_ += flow.remaining;
      done.push_back(std::move(flow.on_complete));
    } else {
      if (&flows_[kept] != &flow) {
        flows_[kept] = std::move(flow);
      }
      ++kept;
    }
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept), flows_.end());
  Reschedule();
  // Callbacks run after rates are consistent; they may start new flows.
  for (auto& cb : done) {
    if (cb) {
      cb();
    }
  }
}

void FlowSimulator::UpdateRxTrackers() {
  // Only a node that receives a remote flow now, or whose tracker reads
  // non-zero, can change value; a Set at the tracker's current value would
  // record nothing, so it is skipped.
  const double now = sim_->Now();
  for (const Flow& flow : flows_) {
    if (flow.src == flow.dst) {
      continue;
    }
    const size_t d = static_cast<size_t>(flow.dst);
    if (rx_listed_[d] == 0) {
      rx_listed_[d] = 1;
      rx_nodes_.push_back(flow.dst);
    }
    rx_[d] += flow.rate;
  }
  size_t kept = 0;
  for (int node : rx_nodes_) {
    const size_t i = static_cast<size_t>(node);
    StepTracker& tracker = nodes_[i].rx_tracker;
    if (rx_[i] != tracker.current()) {
      tracker.Set(now, rx_[i]);
    }
    if (rx_[i] != 0.0) {
      rx_nodes_[kept++] = node;
    } else {
      rx_listed_[i] = 0;
    }
    rx_[i] = 0.0;
  }
  rx_nodes_.resize(kept);
}

}  // namespace ursa
