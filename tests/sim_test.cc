#include <gtest/gtest.h>

#include <map>
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
  // Every Pop must return the minimum (when, id) among the events pending at
  // that instant; a shadow ordered set is the reference model.
  std::set<std::pair<double, EventId>> shadow;
  std::vector<EventId> ids;
  std::vector<double> whens;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      const double when = static_cast<double>((i * 37 + round) % 13);
      const EventId id = queue.Push(when, [] {});
      ids.push_back(id);
      whens.push_back(when);
      shadow.emplace(when, id);
    }
    for (size_t i = 0; i < ids.size(); i += 3) {
      if (queue.Cancel(ids[i])) {
        shadow.erase({whens[i], ids[i]});
      }
    }
    for (int i = 0; i < 10 && !queue.Empty(); ++i) {
      const auto fired = queue.Pop();
      ASSERT_FALSE(shadow.empty());
      EXPECT_EQ(std::make_pair(fired.when, fired.id), *shadow.begin());
      shadow.erase(shadow.begin());
    }
  }
  while (!queue.Empty()) {
    const auto fired = queue.Pop();
    ASSERT_FALSE(shadow.empty());
    EXPECT_EQ(std::make_pair(fired.when, fired.id), *shadow.begin());
    shadow.erase(shadow.begin());
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
    std::set<std::pair<double, EventId>> shadow;
    std::map<EventId, std::pair<double, int>> live;  // id -> (when, tag)
    std::vector<EventId> issued;
    int fired_tag = -1;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.UniformInt(uint64_t{10});
      if (op < 4 || live.empty()) {
        const double when = static_cast<double>(rng.UniformInt(uint64_t{16}));
        const EventId id = queue.Push(when, [&fired_tag, step] { fired_tag = step; });
        ASSERT_TRUE(issued.empty() || id > issued.back());
        issued.push_back(id);
        shadow.emplace(when, id);
        live.emplace(id, std::make_pair(when, step));
      } else if (op < 7) {
        const EventId id = issued[rng.UniformInt(issued.size())];
        auto it = live.find(id);
        EXPECT_EQ(queue.Cancel(id), it != live.end());
        if (it != live.end()) {
          shadow.erase({it->second.first, id});
          live.erase(it);
        }
        EXPECT_LE(queue.StoredCount(), 2 * queue.PendingCount() + 1);
      } else {
        ASSERT_FALSE(queue.Empty());
        EXPECT_DOUBLE_EQ(queue.NextTime(), shadow.begin()->first);
        EventQueue::Fired fired = queue.Pop();
        ASSERT_EQ(std::make_pair(fired.when, fired.id), *shadow.begin());
        fired.cb();
        EXPECT_EQ(fired_tag, live.at(fired.id).second);
        shadow.erase(shadow.begin());
        live.erase(fired.id);
      }
      ASSERT_EQ(queue.PendingCount(), live.size());
      ASSERT_EQ(queue.Empty(), live.empty());
    }
  }
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
