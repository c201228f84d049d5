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

// Removes `id` from a FlowId-ordered list that holds it.
void EraseId(std::vector<FlowId>& ids, FlowId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  CHECK(it != ids.end() && *it == id);
  ids.erase(it);
}
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
  in_comp_down_.resize(n, 0);
  in_comp_up_.resize(n, 0);
  up_cap_.resize(n);
  down_cap_.resize(n);
  up_count_.resize(n, 0);
  down_count_.resize(n, 0);
  rx_.resize(n, 0.0);
}

void FlowSimulator::SetNodeBandwidth(int node, double uplink_bytes_per_sec,
                                     double downlink_bytes_per_sec) {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  nodes_[static_cast<size_t>(node)].up = uplink_bytes_per_sec;
  nodes_[static_cast<size_t>(node)].down = downlink_bytes_per_sec;
  MarkDown(node);
  if (enforce_uplinks_) {
    MarkUp(node);
  }
  Reschedule();
}

void FlowSimulator::set_local_copy_rate(double bytes_per_sec) {
  AdvanceProgress();
  local_copy_rate_ = bytes_per_sec;
  for (Flow& flow : flows_) {
    if (flow.src == flow.dst) {
      flow.rate = local_copy_rate_;
    }
  }
  Reschedule();
}

void FlowSimulator::set_enforce_uplinks(bool enforce) {
  enforce_uplinks_ = enforce;
  // Every remote flow crosses one downlink, so this dirties every link that
  // carries a flow.
  for (int node = 0; node < num_nodes(); ++node) {
    if (!nodes_[static_cast<size_t>(node)].in.empty()) {
      MarkDown(node);
    }
  }
  Reschedule();
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
  if (src == dst) {
    flow.rate = local_copy_rate_;
  } else {
    nodes_[static_cast<size_t>(dst)].in.push_back(id);
    nodes_[static_cast<size_t>(src)].out.push_back(id);
    MarkDirty(flow);
  }
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

void FlowSimulator::CancelFlow(FlowId id) {
  const size_t i = FindFlow(id);
  if (i == flows_.size()) {
    return;
  }
  AdvanceProgress();
  if (flows_[i].src != flows_[i].dst) {
    Unlink(flows_[i]);
  }
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(i));
  callbacks_.erase(callbacks_.begin() + static_cast<std::ptrdiff_t>(i));
  Reschedule();
}

double FlowSimulator::FlowRateForTest(FlowId id) const {
  const size_t i = FindFlow(id);
  CHECK_LT(i, flows_.size());
  return flows_[i].rate;
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

void FlowSimulator::MarkDirty(const Flow& flow) {
  MarkDown(flow.dst);
  if (enforce_uplinks_) {
    MarkUp(flow.src);
  }
}

void FlowSimulator::MarkDown(int node) {
  if (in_comp_down_[static_cast<size_t>(node)] == 0) {
    in_comp_down_[static_cast<size_t>(node)] = 1;
    comp_down_.push_back(node);
  }
}

void FlowSimulator::MarkUp(int node) {
  if (in_comp_up_[static_cast<size_t>(node)] == 0) {
    in_comp_up_[static_cast<size_t>(node)] = 1;
    comp_up_.push_back(node);
  }
}

void FlowSimulator::Unlink(const Flow& flow) {
  EraseId(nodes_[static_cast<size_t>(flow.dst)].in, flow.id);
  EraseId(nodes_[static_cast<size_t>(flow.src)].out, flow.id);
  MarkDirty(flow);
}

void FlowSimulator::ComputeRates() {
  if (comp_down_.empty() && comp_up_.empty()) {
    return;
  }
  // Close the dirty links over shared flows: a downlink brings in its flows,
  // a flow its uplink (when enforced), an uplink its flows' downlinks. Every
  // remote flow crosses exactly one downlink, so each enters once. Without
  // uplinks the component of a downlink is just its own flows.
  comp_flows_.clear();
  size_t next_down = 0;
  size_t next_up = 0;
  while (next_down < comp_down_.size() || next_up < comp_up_.size()) {
    if (next_down < comp_down_.size()) {
      const int d = comp_down_[next_down++];
      for (FlowId id : nodes_[static_cast<size_t>(d)].in) {
        Flow* flow = &flows_[FindFlow(id)];
        comp_flows_.push_back(flow);
        if (enforce_uplinks_) {
          MarkUp(flow->src);
        }
      }
    } else {
      const int s = comp_up_[next_up++];
      for (FlowId id : nodes_[static_cast<size_t>(s)].out) {
        MarkDown(flows_[FindFlow(id)].dst);
      }
    }
  }
  // A downlink's in-list is in FlowId order; a union of several is sorted so
  // the fill freezes flows in the order a fill over every flow would.
  if (comp_down_.size() > 1) {
    std::sort(comp_flows_.begin(), comp_flows_.end(),
              [](const Flow* a, const Flow* b) { return a->id < b->id; });
  }
  ++stats_.refills;
  stats_.flows_visited += static_cast<int64_t>(comp_flows_.size());
  stats_.live_flows += static_cast<int64_t>(flows_.size());

  Fill(comp_flows_, &comp_rates_);
  for (size_t i = 0; i < comp_flows_.size(); ++i) {
    comp_flows_[i]->rate = comp_rates_[i];
  }

  // Rx trackers of the component's receivers: each sum runs over the node's
  // flows in FlowId order. Receivers outside the component keep their rates,
  // and a Set at the tracker's current value would record nothing.
  const double now = sim_->Now();
  for (const Flow* flow : comp_flows_) {
    rx_[static_cast<size_t>(flow->dst)] += flow->rate;
  }
  for (int d : comp_down_) {
    const size_t i = static_cast<size_t>(d);
    StepTracker& tracker = nodes_[i].rx_tracker;
    if (rx_[i] != tracker.current()) {
      tracker.Set(now, rx_[i]);
    }
    rx_[i] = 0.0;
    in_comp_down_[i] = 0;
  }
  for (int s : comp_up_) {
    in_comp_up_[static_cast<size_t>(s)] = 0;
  }
  comp_down_.clear();
  comp_up_.clear();
#ifndef NDEBUG
  VerifyRates();
#endif
}

void FlowSimulator::Fill(const std::vector<Flow*>& flows, std::vector<double>* rates) {
  // Progressive filling: repeatedly find the most-contended link, freeze its
  // flows at the fair share, remove the capacity, iterate. Each round scans
  // only the links that still carry an unfrozen flow and only the unfrozen
  // flows, in FlowId order, so flows freeze and capacities drop in the same
  // order as a scan over every node and flow would give.
  rates->assign(flows.size(), 0.0);
  unfrozen_.clear();
  up_links_.clear();
  down_links_.clear();
  for (size_t i = 0; i < flows.size(); ++i) {
    const Flow& flow = *flows[i];
    unfrozen_.push_back(static_cast<uint32_t>(i));
    const size_t s = static_cast<size_t>(flow.src);
    const size_t d = static_cast<size_t>(flow.dst);
    if (enforce_uplinks_ && up_count_[s]++ == 0) {
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
    for (int s : up_links_) {
      min_share = std::min(min_share, up_cap_[static_cast<size_t>(s)] /
                                          up_count_[static_cast<size_t>(s)]);
    }
    for (int d : down_links_) {
      min_share = std::min(min_share, down_cap_[static_cast<size_t>(d)] /
                                          down_count_[static_cast<size_t>(d)]);
    }
    CHECK(std::isfinite(min_share));
    // Freeze every unfrozen flow crossing a bottleneck link at min_share.
    size_t kept = 0;
    for (uint32_t i : unfrozen_) {
      const Flow& flow = *flows[i];
      const size_t s = static_cast<size_t>(flow.src);
      const size_t d = static_cast<size_t>(flow.dst);
      const double up_share = enforce_uplinks_
                                  ? up_cap_[s] / up_count_[s]
                                  : std::numeric_limits<double>::infinity();
      const double down_share = down_cap_[d] / down_count_[d];
      if (std::min(up_share, down_share) <= min_share * (1.0 + 1e-12)) {
        (*rates)[i] = min_share;
        if (enforce_uplinks_) {
          up_cap_[s] -= min_share;
          --up_count_[s];
        }
        down_cap_[d] -= min_share;
        --down_count_[d];
      } else {
        unfrozen_[kept++] = i;
      }
    }
    CHECK(kept < unfrozen_.size()) << "progressive filling failed to converge";
    unfrozen_.resize(kept);
    std::erase_if(up_links_, [this](int s) { return up_count_[static_cast<size_t>(s)] == 0; });
    std::erase_if(down_links_,
                  [this](int d) { return down_count_[static_cast<size_t>(d)] == 0; });
  }
}

void FlowSimulator::VerifyRates() {
  // The same fill over every live flow. Components fill independently, so
  // the only permitted difference is a cross-component near-tie: two
  // bottleneck shares within the 1e-12 freeze tolerance but not equal, which
  // the fill over every flow freezes at the smaller one.
  comp_flows_.clear();
  for (Flow& flow : flows_) {
    if (flow.src == flow.dst) {
      CHECK_EQ(flow.rate, local_copy_rate_);
    } else {
      comp_flows_.push_back(&flow);
    }
  }
  Fill(comp_flows_, &comp_rates_);
  for (size_t i = 0; i < comp_flows_.size(); ++i) {
    const double kept = comp_flows_[i]->rate;
    const double full = comp_rates_[i];
    if (kept == full) {
      continue;
    }
    CHECK_LE(std::abs(kept - full), 1e-12 * std::max(std::abs(kept), std::abs(full)))
        << "flow " << comp_flows_[i]->id << " refilled at " << kept << " B/s, full fill gives "
        << full << " B/s";
    ++stats_.near_ties;
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
    if (flow.rate > 0.0) {
      next_dt = std::min(next_dt, flow.remaining / flow.rate);
    }
  }
  CHECK(std::isfinite(next_dt)) << "active flows but no positive rate";
  completion_event_ = sim_->Schedule(std::max(next_dt, 0.0), [this] { OnNextCompletion(); });
}

void FlowSimulator::OnNextCompletion() {
  completion_event_ = kInvalidEventId;
  // One pass advances every flow and collects the (numerically) finished
  // ones. Their residues join total_delivered_ after every advance, the
  // order in which a separate advance pass would have summed them.
  const double now = sim_->Now();
  const double dt = now - last_progress_time_;
  last_progress_time_ = now;
  size_t kept = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (dt > 0.0) {
      const double moved = std::min(flow.remaining, flow.rate * dt);
      flow.remaining -= moved;
      total_delivered_ += moved;
    }
    const double eta = flow.rate > 0.0 ? flow.remaining / flow.rate
                                       : std::numeric_limits<double>::infinity();
    if (flow.remaining <= 1e-6 || eta <= kTimeEpsilon) {
      residues_.push_back(flow.remaining);
      done_.push_back(std::move(callbacks_[i]));
      if (flow.src != flow.dst) {
        Unlink(flow);
      }
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
