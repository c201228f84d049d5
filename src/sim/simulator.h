// Discrete-event simulator. Owns a virtual clock and an event queue;
// everything in the simulated cluster (monotask completions, heartbeats,
// scheduling ticks, flow re-computations) is driven by events scheduled here
// or armed on a FixedDelayLane (src/sim/event_queue.h) built on it.
//
// The simulator is strictly single-threaded; all simulated components may
// freely share state without locks.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <functional>
#include <limits>

#include "src/sim/event_queue.h"

namespace ursa {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  // The queue-kind parameter is unused (the binary heap is the only queue);
  // it stays only for perfbench's set-up timer and goes with the next
  // benchmark change, together with EventQueueKind.
  explicit Simulator(
      [[maybe_unused]] EventQueueKind queue_kind = EventQueueKind::kBinaryHeap) {}

  double Now() const { return now_; }

  // Schedules `cb` to run `delay` seconds from now (>= 0).
  EventId Schedule(double delay, Callback cb);

  // Schedules `cb` at absolute time `when` (>= Now()).
  EventId ScheduleAt(double when, Callback cb);

  // Cancels a pending event; no-op if already fired/cancelled.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs until the queue drains or the clock passes `until`.
  // Returns the number of events fired, lane events included.
  uint64_t Run(double until = std::numeric_limits<double>::infinity());

  // Fires exactly one event if any is pending; returns whether one fired.
  bool Step();

  bool Idle() const { return queue_.Empty(); }

 private:
  friend class FixedDelayLane;

  // Pops the earliest event, advances the clock to it and runs it. Must not
  // be called when the queue is empty.
  void FireNext();

  EventQueue queue_;
  double now_ = 0.0;
};

}  // namespace ursa

#endif  // SRC_SIM_SIMULATOR_H_
