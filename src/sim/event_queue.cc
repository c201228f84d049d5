#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace ursa {

namespace {

// The (when, id) order every event fires in.
bool Earlier(double when_a, EventId id_a, double when_b, EventId id_b) {
  return when_a != when_b ? when_a < when_b : id_a < id_b;
}

}  // namespace

EventId EventQueue::NextId(EventId slot) {
  CHECK_LT(next_seq_, EventId{1} << (64 - kSlotBits)) << "event sequence exhausted";
  return (next_seq_++ << kSlotBits) | slot;
}

EventId EventQueue::Push(double when, Callback cb) {
  EventId slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    CHECK_LE(slot, kSlotMask) << "more than 2^" << kSlotBits << " events pending";
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = NextId(slot);
  Slot& s = slots_[slot];
  s.id = id;
  s.cb = std::move(cb);
  heap_.push_back(Entry{when, id});
  std::push_heap(heap_.begin(), heap_.end(), Later());
  return id;
}

void EventQueue::FreeSlot(EventId s) {
  Slot& slot = slots_[s];
  slot.id = kInvalidEventId;
  slot.cb = nullptr;
  free_slots_.push_back(static_cast<uint32_t>(s));
}

bool EventQueue::Cancel(EventId id) {
  const EventId s = id & kSlotMask;
  if (id == kInvalidEventId || s >= slots_.size() || slots_[s].id != id) {
    return false;
  }
  FreeSlot(s);
  ++tombstones_;
  if (heap_.front().id == id) {
    DropCancelledHead();
  }
  CompactIfWorthwhile();
  return true;
}

void EventQueue::CompactIfWorthwhile() {
  // Eager compaction: once tombstones outnumber live entries (i.e. exceed
  // half the heap), one O(n) rebuild halves the footprint. Amortized O(1)
  // per cancel because a rebuild is always preceded by >= n/2 cancels.
  if (tombstones_ <= LiveCount()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) { return !IsLive(e); }),
              heap_.end());
  tombstones_ = 0;
  CHECK_EQ(heap_.size(), LiveCount());
  std::make_heap(heap_.begin(), heap_.end(), Later());
}

void EventQueue::DropCancelledHead() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    heap_.pop_back();
    --tombstones_;
  }
}

FixedDelayLane* EventQueue::NextLane() const {
  FixedDelayLane* next = nullptr;
  for (FixedDelayLane* lane : lanes_) {
    if (!lane->Empty() &&
        (next == nullptr || Earlier(lane->Front().when, lane->Front().id,
                                    next->Front().when, next->Front().id))) {
      next = lane;
    }
  }
  if (next == nullptr || heap_.empty() ||
      Earlier(next->Front().when, next->Front().id, heap_.front().when, heap_.front().id)) {
    return next;
  }
  return nullptr;
}

double EventQueue::NextTime() const {
  double next = heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.front().when;
  for (const FixedDelayLane* lane : lanes_) {
    if (!lane->Empty()) {
      next = std::min(next, lane->Front().when);
    }
  }
  return next;
}

EventQueue::Fired EventQueue::Pop() {
  CHECK(!Empty());
  if (FixedDelayLane* lane = NextLane()) {
    const FixedDelayLane::Entry e = lane->PopFront();
    return Fired{e.when, e.id, nullptr, lane, e.arg};
  }
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  heap_.pop_back();
  const EventId s = top.id & kSlotMask;
  CHECK_EQ(slots_[s].id, top.id);
  Fired fired{top.when, top.id, std::move(slots_[s].cb)};
  FreeSlot(s);
  DropCancelledHead();
  return fired;
}

size_t EventQueue::PendingCount() const {
  // The CHECK pins the heap bookkeeping so the count can never underflow.
  CHECK_EQ(heap_.size(), LiveCount() + tombstones_);
  return LiveCount() + lane_events_;
}

FixedDelayLane::FixedDelayLane(EventQueue* queue, const double* now, double delay,
                               Handler handler)
    : queue_(queue), now_(now), delay_(delay), handler_(std::move(handler)) {
  CHECK_GE(delay_, 0.0);
  CHECK(handler_ != nullptr);
  queue_->lanes_.push_back(this);
}

FixedDelayLane::~FixedDelayLane() {
  queue_->lane_events_ -= fifo_.size() - head_;
  std::vector<FixedDelayLane*>& lanes = queue_->lanes_;
  lanes.erase(std::find(lanes.begin(), lanes.end(), this));
}

EventId FixedDelayLane::Arm(int32_t arg) {
  const double when = *now_ + delay_;
  if (!Empty()) {
    CHECK_GE(when, fifo_.back().when) << "lane append before its tail";
  }
  const EventId id = queue_->NextId(0);
  fifo_.push_back(Entry{when, id, arg});
  ++queue_->lane_events_;
  return id;
}

FixedDelayLane::Entry FixedDelayLane::PopFront() {
  const Entry e = fifo_[head_++];
  --queue_->lane_events_;
  if (head_ * 2 >= fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return e;
}

}  // namespace ursa
