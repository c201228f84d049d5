#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace ursa {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Push(3.0, [&] { fired.push_back(3); });
  queue.Push(1.0, [&] { fired.push_back(1); });
  queue.Push(2.0, [&] { fired.push_back(2); });
  while (!queue.Empty()) {
    queue.Pop().cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFifo) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.Push(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.Empty()) {
    queue.Pop().cb();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.Push(1.0, [&] { fired = true; });
  queue.Push(2.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));  // Second cancel is a no-op.
  while (!queue.Empty()) {
    queue.Pop().cb();
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelHeadUpdatesNextTime) {
  EventQueue queue;
  const EventId id = queue.Push(1.0, [] {});
  queue.Push(5.0, [] {});
  EXPECT_DOUBLE_EQ(queue.NextTime(), 1.0);
  queue.Cancel(id);
  EXPECT_DOUBLE_EQ(queue.NextTime(), 5.0);
  EXPECT_EQ(queue.PendingCount(), 1u);
}

TEST(EventQueueTest, EagerCompactionBoundsTombstones) {
  EventQueue queue;
  // Cancel-heavy usage (speculation + chaos) must not grow storage without
  // bound: tombstones are compacted once they outnumber live events.
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(queue.Push(1.0 + 0.001 * i, [] {}));
  }
  for (size_t i = 0; i < ids.size(); i += 2) {
    queue.Cancel(ids[i]);
    EXPECT_LE(queue.StoredCount(), 2 * queue.PendingCount() + 1);
  }
  EXPECT_EQ(queue.PendingCount(), ids.size() / 2);
}

TEST(EventQueueTest, InterleavedPushPopCancelMatchesShadowModel) {
  EventQueue queue;
  // The lane's clock, like the simulator's, never goes back.
  double now = 0.0;
  FixedDelayLane lane(&queue, &now, 3.0, [](int32_t) {});
  // Every Pop must return the minimum (when, id) among the events pending at
  // that instant, heap and lane alike; a shadow ordered set is the
  // reference model.
  std::set<std::pair<double, EventId>> shadow;
  std::vector<EventId> ids;
  std::vector<double> whens;
  auto pop = [&] {
    const auto fired = queue.Pop();
    ASSERT_FALSE(shadow.empty());
    EXPECT_EQ(std::make_pair(fired.when, fired.id), *shadow.begin());
    shadow.erase(shadow.begin());
    now = std::max(now, fired.when);
  };
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      const double when = static_cast<double>((i * 37 + round) % 13);
      const EventId id = queue.Push(when, [] {});
      ids.push_back(id);
      whens.push_back(when);
      shadow.emplace(when, id);
      if (i % 5 == 0) {
        shadow.emplace(now + 3.0, lane.Arm(i));
      }
    }
    for (size_t i = 0; i < ids.size(); i += 3) {
      if (queue.Cancel(ids[i])) {
        shadow.erase({whens[i], ids[i]});
      }
    }
    for (int i = 0; i < 10 && !queue.Empty(); ++i) {
      pop();
    }
  }
  while (!queue.Empty()) {
    pop();
  }
  EXPECT_TRUE(shadow.empty());
}

TEST(EventQueueTest, StaleIdCannotCancelSlotReuser) {
  EventQueue queue;
  const EventId first = queue.Push(1.0, [] {});
  EXPECT_EQ(queue.Pop().id, first);
  // The next push takes the slot `first` freed; the stale id must not match.
  bool fired = false;
  const EventId second = queue.Push(2.0, [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(queue.Cancel(first));
  EXPECT_EQ(queue.PendingCount(), 1u);
  ASSERT_FALSE(queue.Empty());
  queue.Pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, CancelInvalidIdIsNoOp) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(kInvalidEventId));
  queue.Push(1.0, [] {});
  EXPECT_FALSE(queue.Cancel(kInvalidEventId));
  EXPECT_EQ(queue.PendingCount(), 1u);
  EXPECT_EQ(queue.StoredCount(), 1u);
}

TEST(EventQueueTest, IdsRiseStrictlyWithPushOrder) {
  EventQueue queue;
  // Pops and cancels free slots that later pushes reuse; ids must still rise
  // with push order, since they break same-time ties.
  EventId last = kInvalidEventId;
  std::vector<EventId> pending;
  for (int i = 0; i < 2000; ++i) {
    const EventId id = queue.Push(static_cast<double>(i % 7), [] {});
    EXPECT_GT(id, last);
    last = id;
    pending.push_back(id);
    if (i % 3 == 0) {
      queue.Cancel(pending[pending.size() / 2]);
    }
    if (i % 2 == 0 && !queue.Empty()) {
      queue.Pop();
    }
  }
}

TEST(EventQueueTest, SlotReuseFuzzMatchesShadowModel) {
  // Few pending events and many pushes, pops and cancels (including cancels
  // of long-dead ids), so every slot is reused many times. The shadow is an
  // ordered set of (when, id) plus each live id's tag; each fired callback
  // must carry the tag pushed with its id.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    double now = 0.0;
    int fired_tag = -1;
    FixedDelayLane lane(&queue, &now, 2.0, [&fired_tag](int32_t tag) { fired_tag = tag; });
    std::set<std::pair<double, EventId>> shadow;
    std::map<EventId, std::pair<double, int>> live;  // id -> (when, tag)
    std::set<EventId> lane_ids;  // Lane events cannot be cancelled.
    std::vector<EventId> issued;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.UniformInt(uint64_t{11});
      if (op == 10) {
        const EventId id = lane.Arm(step);
        ASSERT_TRUE(issued.empty() || id > issued.back());
        issued.push_back(id);
        lane_ids.insert(id);
        shadow.emplace(now + 2.0, id);
        live.emplace(id, std::make_pair(now + 2.0, step));
      } else if (op < 4 || live.empty()) {
        const double when = static_cast<double>(rng.UniformInt(uint64_t{16}));
        const EventId id = queue.Push(when, [&fired_tag, step] { fired_tag = step; });
        ASSERT_TRUE(issued.empty() || id > issued.back());
        issued.push_back(id);
        shadow.emplace(when, id);
        live.emplace(id, std::make_pair(when, step));
      } else if (op < 7) {
        const EventId id = issued[rng.UniformInt(issued.size())];
        auto it = live.find(id);
        const bool cancellable = it != live.end() && lane_ids.count(id) == 0;
        EXPECT_EQ(queue.Cancel(id), cancellable);
        if (cancellable) {
          shadow.erase({it->second.first, id});
          live.erase(it);
        }
        EXPECT_LE(queue.StoredCount(), 2 * queue.PendingCount() + 1);
      } else {
        ASSERT_FALSE(queue.Empty());
        EXPECT_DOUBLE_EQ(queue.NextTime(), shadow.begin()->first);
        EventQueue::Fired fired = queue.Pop();
        ASSERT_EQ(std::make_pair(fired.when, fired.id), *shadow.begin());
        ASSERT_EQ(fired.lane != nullptr, lane_ids.count(fired.id) == 1);
        if (fired.lane != nullptr) {
          fired.lane->Fire(fired.arg);
        } else {
          fired.cb();
        }
        EXPECT_EQ(fired_tag, live.at(fired.id).second);
        now = std::max(now, fired.when);
        shadow.erase(shadow.begin());
        live.erase(fired.id);
      }
      ASSERT_EQ(queue.PendingCount(), live.size());
      ASSERT_EQ(queue.Empty(), live.empty());
    }
  }
}

TEST(EventQueueDeathTest, LaneAppendBeforeItsTailAborts) {
  EventQueue queue;
  double now = 5.0;
  FixedDelayLane lane(&queue, &now, 1.0, [](int32_t) {});
  lane.Arm(0);
  now = 4.0;  // A clock that went back would break the lane's order.
  EXPECT_DEATH(lane.Arm(1), "lane append before its tail");
}

TEST(Simulator, LaneAndHeapTiesFireInPushOrder) {
  Simulator sim;
  std::vector<int> order;
  FixedDelayLane lane(&sim, 1.0, [&order](int32_t tag) { order.push_back(tag); });
  // Alternate heap and lane events at the same instant, t = 1; then two
  // more rounds armed from inside a firing event, at t = 2.
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      sim.Schedule(1.0, [&order, i] { order.push_back(i); });
    } else {
      lane.Arm(i);
    }
  }
  sim.Schedule(1.0, [&sim, &lane, &order] {
    lane.Arm(10);
    sim.Schedule(1.0, [&order] { order.push_back(11); });
    lane.Arm(12);
  });
  sim.Schedule(0.5, [&lane] { lane.Arm(-1); });  // Fires at 1.5.
  while (sim.Step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, -1, 10, 11, 12}));
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
}

TEST(Simulator, RunCountsLaneEvents) {
  Simulator sim;
  int beats = 0;
  std::unique_ptr<FixedDelayLane> lane;
  lane = std::make_unique<FixedDelayLane>(&sim, 0.5, [&](int32_t w) {
    ++beats;
    if (beats < 20) {
      lane->Arm(w);
    }
  });
  lane->Arm(0);
  sim.Schedule(3.0, [] {});
  sim.Schedule(7.0, [] {});
  EXPECT_EQ(sim.Run(), 22u);
  EXPECT_EQ(beats, 20);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(Simulator, DestroyedLaneDropsItsPendingEvents) {
  Simulator sim;
  int beats = 0;
  // A chain that re-arms forever, like a heartbeat with nothing to stop it;
  // destroying its lane mid-run drops the pending link, so Run terminates.
  std::unique_ptr<FixedDelayLane> lane;
  lane = std::make_unique<FixedDelayLane>(&sim, 1.0, [&](int32_t w) {
    ++beats;
    lane->Arm(w);
    lane->Arm(w + 1);
  });
  lane->Arm(0);
  sim.Schedule(3.5, [&lane] { lane.reset(); });
  bool later = false;
  sim.Schedule(5.0, [&later] { later = true; });
  // Beats at t = 1 (1 link), 2 (2 links) and 3 (4 links), then the reset.
  EXPECT_EQ(sim.Run(), 1u + 2u + 4u + 2u);
  EXPECT_EQ(beats, 7);
  EXPECT_TRUE(later);
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(2.0, [&] { times.push_back(sim.Now()); });
  sim.Schedule(1.0, [&] {
    times.push_back(sim.Now());
    sim.Schedule(0.5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5, 2.0}));
  EXPECT_TRUE(sim.Idle());
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(10.0, [&] { ++fired; });
  sim.Run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator sim;
  double when = -1.0;
  sim.Schedule(3.0, [&] {
    sim.Schedule(0.0, [&] { when = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(when, 3.0);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identical runs produce the identical firing sequence.
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.Schedule(static_cast<double>((i * 37) % 11), [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ursa
