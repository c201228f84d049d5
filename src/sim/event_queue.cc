#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace ursa {

EventId EventQueue::Push(double when, Callback cb) {
  CHECK_LT(next_seq_, EventId{1} << (64 - kSlotBits)) << "event sequence exhausted";
  EventId slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    CHECK_LE(slot, kSlotMask) << "more than 2^" << kSlotBits << " events pending";
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = (next_seq_++ << kSlotBits) | slot;
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

double EventQueue::NextTime() const {
  if (heap_.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  return heap_.front().when;
}

EventQueue::Fired EventQueue::Pop() {
  CHECK(!heap_.empty());
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
  return LiveCount();
}

}  // namespace ursa
