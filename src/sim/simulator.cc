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
    FireNext();
    ++fired;
  }
  return fired;
}

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  FireNext();
  return true;
}

void Simulator::FireNext() {
  EventQueue::Fired event = queue_.Pop();
  CHECK_GE(event.when, now_);
  now_ = event.when;
  if (event.lane != nullptr) {
    event.lane->Fire(event.arg);
  } else {
    event.cb();
  }
}

FixedDelayLane::FixedDelayLane(Simulator* sim, double delay, Handler handler)
    : FixedDelayLane(&sim->queue_, &sim->now_, delay, std::move(handler)) {}

}  // namespace ursa
