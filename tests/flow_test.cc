#include "src/net/flow_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/cluster.h"
#include "src/sim/simulator.h"

namespace ursa {
namespace {

constexpr double kGbps = 1e9 / 8.0;

TEST(FlowSimulator, SingleFlowUsesFullDownlink) {
  Simulator sim;
  FlowSimulator net(&sim, 2, 10 * kGbps, 10 * kGbps);
  double done_at = -1.0;
  net.StartFlow(0, 1, 10 * kGbps /*= 1 second of bytes*/, [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST(FlowSimulator, TwoFlowsShareReceiverDownlink) {
  Simulator sim;
  FlowSimulator net(&sim, 3, 10 * kGbps, 10 * kGbps);
  double done0 = -1.0;
  double done1 = -1.0;
  net.StartFlow(0, 2, 10 * kGbps, [&] { done0 = sim.Now(); });
  net.StartFlow(1, 2, 10 * kGbps, [&] { done1 = sim.Now(); });
  sim.Run();
  // Each gets half the downlink: both complete at ~2 s.
  EXPECT_NEAR(done0, 2.0, 1e-6);
  EXPECT_NEAR(done1, 2.0, 1e-6);
}

TEST(FlowSimulator, ReceiverOnlyModeIgnoresUplink) {
  Simulator sim;
  FlowSimulator net(&sim, 3, 10 * kGbps, 10 * kGbps);
  double done0 = -1.0;
  double done1 = -1.0;
  net.StartFlow(0, 1, 10 * kGbps, [&] { done0 = sim.Now(); });
  net.StartFlow(0, 2, 10 * kGbps, [&] { done1 = sim.Now(); });
  sim.Run();
  // Different receivers, uplink unconstrained: both finish in 1 s.
  EXPECT_NEAR(done0, 1.0, 1e-6);
  EXPECT_NEAR(done1, 1.0, 1e-6);
}

TEST(FlowSimulator, UplinkModeCannotBeEnabled) {
  Simulator sim;
  FlowSimulator net(&sim, 2, 10 * kGbps, 10 * kGbps);
  net.set_enforce_uplinks(false);
  EXPECT_DEATH(net.set_enforce_uplinks(true), "section 4.2.3");
  ClusterConfig config;
  config.enforce_uplinks = true;
  EXPECT_DEATH({ Cluster cluster(&sim, config); }, "section 4.2.3");
}

TEST(FlowSimulator, DownlinkChangeRecomputesShareAndRxRate) {
  Simulator sim;
  FlowSimulator net(&sim, 3, 10 * kGbps, 10 * kGbps);
  const FlowId a = net.StartFlow(0, 2, 1e12, nullptr);
  const FlowId b = net.StartFlow(1, 2, 1e12, nullptr);
  EXPECT_EQ(net.FlowRateForTest(a), 5 * kGbps);
  net.SetDownlink(2, 4 * kGbps);
  EXPECT_EQ(net.FlowRateForTest(a), 2 * kGbps);
  EXPECT_EQ(net.FlowRateForTest(b), 2 * kGbps);
  EXPECT_EQ(net.NodeRxRate(2), 4 * kGbps);
  EXPECT_DEATH(net.SetDownlink(2, -1.0), "CHECK failed");
}

// Every flow into one receiver moves at exactly down / k. Progressive
// filling only approximates that: it subtracts each frozen share from the
// link and re-divides, so from k = 210 on the tail drifts past its 1e-12
// freeze tolerance and freezes in a second round at a slightly different
// rate. FlowOracle's progressive-filling reference is compared with `==`,
// so its shapes keep every receiver's fan-in below that.
TEST(FlowSimulator, FanInSharesDownlinkExactly) {
  const double down = 10 * kGbps;
  for (int k = 1; k <= 400; ++k) {
    Simulator sim;
    FlowSimulator net(&sim, k + 1, down, down);
    std::vector<FlowId> ids;
    for (int i = 1; i <= k; ++i) {
      ids.push_back(net.StartFlow(i, 0, 1e12, nullptr));
    }
    for (const FlowId id : ids) {
      ASSERT_EQ(net.FlowRateForTest(id), down / k) << "k = " << k << ", flow " << id;
    }
  }
}

TEST(FlowSimulator, LocalFlowsBypassLinks) {
  Simulator sim;
  FlowSimulator net(&sim, 2, 10 * kGbps, 10 * kGbps);
  double done = -1.0;
  net.StartFlow(0, 0, 16e9, [&] { done = sim.Now(); });  // 8 GB/s local copy.
  net.StartFlow(0, 1, 1e12, nullptr);                     // Unrelated remote flow.
  sim.Run(3.0);
  EXPECT_NEAR(done, 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(net.NodeRxRate(0), 0.0);  // Local copy not counted as rx.
}

TEST(FlowSimulator, ZeroByteFlowCompletesImmediately) {
  Simulator sim;
  FlowSimulator net(&sim, 2, 10 * kGbps, 10 * kGbps);
  bool fired = false;
  net.StartFlow(0, 1, 0.0, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(FlowSimulator, RxTrackerRecordsReceiveRate) {
  Simulator sim;
  FlowSimulator net(&sim, 2, 10 * kGbps, 10 * kGbps);
  net.StartFlow(0, 1, 10 * kGbps, nullptr);  // 1 s at full rate.
  sim.Run();
  EXPECT_NEAR(net.rx_tracker(1).IntegralTo(2.0), 10 * kGbps, 1e3);
}

// Property: total delivered bytes equal the sum of all completed flow sizes,
// and no link's rate ever exceeds capacity.
class FlowConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowConservation, BytesConservedAndCapacitiesRespected) {
  Simulator sim;
  const int nodes = 6;
  FlowSimulator net(&sim, nodes, 10 * kGbps, 10 * kGbps);
  net.KeepRxHistories();
  Rng rng(GetParam());
  double total = 0.0;
  int completed = 0;
  const int kFlows = 40;
  for (int i = 0; i < kFlows; ++i) {
    const int src = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(nodes)));
    int dst = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(nodes)));
    if (dst == src) {
      dst = (dst + 1) % nodes;
    }
    const double bytes = rng.Uniform(1e6, 5e9);
    total += bytes;
    sim.Schedule(rng.Uniform(0.0, 5.0), [&net, &completed, src, dst, bytes] {
      net.StartFlow(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  sim.Run();
  EXPECT_EQ(completed, kFlows);
  EXPECT_NEAR(net.total_bytes_delivered(), total, total * 1e-6 + kFlows);
  for (int n = 0; n < nodes; ++n) {
    EXPECT_LE(net.rx_tracker(n).Max(0.0, 1e9), 10 * kGbps * 1.0000001);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservation, ::testing::Range<uint64_t>(1, 11));

// Reference oracle: the same flow model with flows in a std::map, a
// progressive filling over the downlinks that scans every node and every
// flow in each round, and every node's rx tracker rewritten on every change.
// Progressive filling reaches the fair share along a different float path
// than FlowSimulator's one division per receiver.
class RefFlowModel {
 public:
  // FlowSimulator's signature; the uplink argument is ignored.
  RefFlowModel(Simulator* sim, int num_nodes, double /*up*/, double down)
      : sim_(sim), nodes_(static_cast<size_t>(num_nodes)) {
    for (Node& node : nodes_) {
      node.down = down;
    }
  }

  void SetDownlink(int node, double down) {
    nodes_[static_cast<size_t>(node)].down = down;
    Reschedule();
  }

  FlowId StartFlow(int src, int dst, double bytes, std::function<void()> on_complete) {
    const FlowId id = next_id_++;
    flows_.emplace(id, Flow{src, dst, std::max(bytes, 1.0), 0.0, std::move(on_complete)});
    Reschedule();
    return id;
  }

  double FlowRateForTest(FlowId id) const { return flows_.at(id).rate; }
  void KeepRxHistories() {
    for (Node& node : nodes_) {
      node.rx_tracker.KeepHistory();
    }
  }
  const StepTracker& rx_tracker(int node) const {
    return nodes_[static_cast<size_t>(node)].rx_tracker;
  }
  double total_bytes_delivered() const { return total_delivered_; }

 private:
  struct Flow {
    int src;
    int dst;
    double remaining;
    double rate;
    std::function<void()> on_complete;
  };
  struct Node {
    double down = 0.0;
    StepTracker rx_tracker;
  };

  void AdvanceProgress() {
    const double dt = sim_->Now() - last_progress_time_;
    if (dt > 0.0) {
      for (auto& [id, flow] : flows_) {
        const double moved = std::min(flow.remaining, flow.rate * dt);
        flow.remaining -= moved;
        total_delivered_ += moved;
      }
    }
    last_progress_time_ = sim_->Now();
  }

  void ComputeRates() {
    const size_t n = nodes_.size();
    std::vector<double> down_cap(n);
    std::vector<int> down_count(n, 0);
    for (size_t i = 0; i < n; ++i) {
      down_cap[i] = nodes_[i].down;
    }
    std::vector<Flow*> remote;
    for (auto& [id, flow] : flows_) {
      if (flow.src == flow.dst) {
        flow.rate = 8e9;  // FlowSimulator's local-copy rate.
        continue;
      }
      flow.rate = 0.0;
      remote.push_back(&flow);
      ++down_count[static_cast<size_t>(flow.dst)];
    }
    std::vector<bool> frozen(remote.size(), false);
    size_t active = remote.size();
    while (active > 0) {
      double min_share = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        if (down_count[i] > 0) {
          min_share = std::min(min_share, down_cap[i] / down_count[i]);
        }
      }
      for (size_t f = 0; f < remote.size(); ++f) {
        if (frozen[f]) {
          continue;
        }
        Flow* flow = remote[f];
        const size_t d = static_cast<size_t>(flow->dst);
        if (down_cap[d] / down_count[d] <= min_share * (1.0 + 1e-12)) {
          flow->rate = min_share;
          frozen[f] = true;
          down_cap[d] -= min_share;
          --down_count[d];
          --active;
        }
      }
    }
  }

  void Reschedule() {
    AdvanceProgress();
    if (completion_event_ != kInvalidEventId) {
      sim_->Cancel(completion_event_);
      completion_event_ = kInvalidEventId;
    }
    if (!flows_.empty()) {
      ComputeRates();
    }
    std::vector<double> rx(nodes_.size(), 0.0);
    for (const auto& [id, flow] : flows_) {
      if (flow.src != flow.dst) {
        rx[static_cast<size_t>(flow.dst)] += flow.rate;
      }
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].rx_tracker.Set(sim_->Now(), rx[i]);
    }
    if (flows_.empty()) {
      return;
    }
    double next_dt = std::numeric_limits<double>::infinity();
    for (const auto& [id, flow] : flows_) {
      if (flow.rate > 0.0) {
        next_dt = std::min(next_dt, flow.remaining / flow.rate);
      }
    }
    completion_event_ = sim_->Schedule(std::max(next_dt, 0.0), [this] { OnNextCompletion(); });
  }

  void OnNextCompletion() {
    completion_event_ = kInvalidEventId;
    AdvanceProgress();
    std::vector<std::function<void()>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      Flow& flow = it->second;
      const double eta = flow.rate > 0.0 ? flow.remaining / flow.rate
                                         : std::numeric_limits<double>::infinity();
      if (flow.remaining <= 1e-6 || eta <= 1e-9) {
        total_delivered_ += flow.remaining;
        done.push_back(std::move(flow.on_complete));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    Reschedule();
    for (auto& cb : done) {
      if (cb) {
        cb();
      }
    }
  }

  Simulator* sim_;
  std::vector<Node> nodes_;
  std::map<FlowId, Flow> flows_;
  FlowId next_id_ = 1;
  double last_progress_time_ = 0.0;
  EventId completion_event_ = kInvalidEventId;
  double total_delivered_ = 0.0;
};

// Everything a run exposes: completion times, every active flow's rate
// after each start and each control change, and per-node rx integrals and
// peaks.
struct FlowRun {
  std::vector<double> done_at;
  std::vector<double> rates;
  std::vector<double> rx_integral;
  std::vector<double> rx_max;
  double delivered = 0.0;
};

// Where flows go. kSmall: any node to any node on 2-24 nodes. kWide: fan-in
// groups on 200-400 nodes, each even node receiving from a few odd
// neighbours, so a change touches one of many receivers. Either way a
// receiver's fan-in stays far below the 210 flows at which progressive
// filling drifts (FanInSharesDownlinkExactly).
enum class FlowShape { kSmall, kWide };

// Random cluster and flow set (local flows, zero-byte flows and
// simultaneous starts included). Every draw is made before the run, so both
// models see the same schedule. Without `uniform_links`, kSmall gives half
// its nodes and kWide every node a downlink of its own, and downlinks change
// mid-run; with it, every downlink keeps 10 Gbps, the benchmarks' regime.
template <typename Net>
FlowRun DriveRandomFlows(uint64_t seed, FlowShape shape, bool uniform_links) {
  Simulator sim;
  Rng rng(seed);
  const int nodes = shape == FlowShape::kWide
                        ? static_cast<int>(rng.UniformInt(int64_t{200}, int64_t{400}))
                        : static_cast<int>(rng.UniformInt(int64_t{2}, int64_t{24}));
  Net net(&sim, nodes, 10 * kGbps, 10 * kGbps);
  net.KeepRxHistories();
  for (int n = 0; n < nodes; ++n) {
    if (!uniform_links && (shape != FlowShape::kSmall || rng.UniformInt(uint64_t{2}) == 0)) {
      net.SetDownlink(n, rng.Uniform(1.0, 20.0) * kGbps);
    }
  }
  const int kFlows = shape == FlowShape::kWide ? 200 : 80;
  const double window = rng.UniformInt(uint64_t{3}) == 0 ? 0.0 : 5.0;
  FlowRun run;
  run.done_at.assign(kFlows, -1.0);
  std::vector<FlowId> ids(kFlows, kInvalidFlowId);
  std::vector<char> over(kFlows, 0);
  auto record_rates = [&] {
    for (int j = 0; j < kFlows; ++j) {
      if (ids[static_cast<size_t>(j)] != kInvalidFlowId && over[static_cast<size_t>(j)] == 0) {
        run.rates.push_back(net.FlowRateForTest(ids[static_cast<size_t>(j)]));
      }
    }
  };
  const uint64_t n = static_cast<uint64_t>(nodes);
  for (int i = 0; i < kFlows; ++i) {
    int src = 0;
    int dst = 0;
    switch (shape) {
      case FlowShape::kSmall:
        src = static_cast<int>(rng.UniformInt(n));
        dst = static_cast<int>(rng.UniformInt(n));
        break;
      case FlowShape::kWide:
        dst = 2 * static_cast<int>(rng.UniformInt(n / 2));
        src = (dst + 1 + 2 * static_cast<int>(rng.UniformInt(uint64_t{3}))) % nodes;
        break;
    }
    const double bytes = rng.UniformInt(uint64_t{10}) == 0 ? 0.0 : rng.Uniform(1e6, 5e9);
    const double start = rng.Uniform(0.0, window);
    sim.ScheduleAt(start, [&, i, src, dst, bytes] {
      ids[static_cast<size_t>(i)] = net.StartFlow(src, dst, bytes, [&, i] {
        run.done_at[static_cast<size_t>(i)] = sim.Now();
        over[static_cast<size_t>(i)] = 1;
      });
      record_rates();
    });
  }
  const int controls = uniform_links ? 0 : static_cast<int>(rng.UniformInt(uint64_t{7}));
  for (int c = 0; c < controls; ++c) {
    const double at = rng.Uniform(0.0, window + 2.0);
    const int node = static_cast<int>(rng.UniformInt(n));
    const double down = rng.Uniform(1.0, 20.0) * kGbps;
    sim.ScheduleAt(at, [&, node, down] {
      net.SetDownlink(node, down);
      record_rates();
    });
  }
  sim.Run();
  for (int node = 0; node < nodes; ++node) {
    run.rx_integral.push_back(net.rx_tracker(node).IntegralTo(sim.Now() + 1.0));
    run.rx_max.push_back(net.rx_tracker(node).Max(0.0, sim.Now() + 1.0));
  }
  run.delivered = net.total_bytes_delivered();
  return run;
}

class FlowOracle : public ::testing::TestWithParam<std::tuple<uint64_t, FlowShape, bool>> {};

TEST_P(FlowOracle, MatchesFullScanReferenceBitForBit) {
  const auto [seed, shape, uniform_links] = GetParam();
  const FlowRun got = DriveRandomFlows<FlowSimulator>(seed, shape, uniform_links);
  const FlowRun want = DriveRandomFlows<RefFlowModel>(seed, shape, uniform_links);
  ASSERT_FALSE(want.rates.empty());
  // Exact equality throughout: the receiver-side model must not move a bit.
  EXPECT_EQ(got.done_at, want.done_at);
  EXPECT_EQ(got.rates, want.rates);
  EXPECT_EQ(got.rx_integral, want.rx_integral);
  EXPECT_EQ(got.rx_max, want.rx_max);
  EXPECT_EQ(got.delivered, want.delivered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowOracle,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 31),
                                            ::testing::Values(FlowShape::kSmall,
                                                              FlowShape::kWide),
                                            ::testing::Bool()));

}  // namespace
}  // namespace ursa
