#include "src/sim/simulator.h"

#include "src/common/logging.h"

namespace ursa {

EventId Simulator::Schedule(double delay, Callback cb) {
  CHECK_GE(delay, 0.0);
  return queue_.Push(now_ + delay, std::move(cb));
}

EventId Simulator::ScheduleAt(double when, Callback cb) {
  CHECK_GE(when, now_);
  return queue_.Push(when, std::move(cb));
}

uint64_t Simulator::Run(double until) {
  uint64_t fired = 0;
  while (!queue_.Empty() && queue_.NextTime() <= until) {
    EventQueue::Fired event = queue_.Pop();
    CHECK_GE(event.when, now_);
    now_ = event.when;
    event.cb();
    ++fired;
  }
  return fired;
}

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  EventQueue::Fired event = queue_.Pop();
  now_ = event.when;
  event.cb();
  return true;
}

}  // namespace ursa
