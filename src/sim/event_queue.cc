#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/calendar_queue.h"

namespace ursa {

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind) {
  switch (kind) {
    case EventQueueKind::kBinaryHeap:
      return std::make_unique<HeapEventQueue>();
    case EventQueueKind::kCalendar:
      return std::make_unique<CalendarEventQueue>();
  }
  CHECK(false) << "unknown EventQueueKind";
  return nullptr;
}

const char* EventQueueKindName(EventQueueKind kind) {
  switch (kind) {
    case EventQueueKind::kBinaryHeap:
      return "heap";
    case EventQueueKind::kCalendar:
      return "calendar";
  }
  return "?";
}

EventId HeapEventQueue::Push(double when, Callback cb) {
  const EventId id = next_id_++;
  heap_.push_back(Entry{when, id});
  std::push_heap(heap_.begin(), heap_.end(), Later());
  callbacks_.emplace(id, std::move(cb));
  return id;
}

bool HeapEventQueue::Cancel(EventId id) {
  auto it = callbacks_.find(id);
  if (it == callbacks_.end()) {
    return false;
  }
  callbacks_.erase(it);
  cancelled_.insert(id);
  CompactIfWorthwhile();
  return true;
}

void HeapEventQueue::CompactIfWorthwhile() {
  // Eager compaction: once tombstones outnumber live entries (i.e. exceed
  // half the heap), one O(n) rebuild halves the footprint. Amortized O(1)
  // per cancel because a rebuild is always preceded by >= n/2 cancels.
  if (cancelled_.size() <= callbacks_.size()) {
    return;
  }
  std::vector<Entry> live;
  live.reserve(callbacks_.size());
  for (const Entry& e : heap_) {
    if (cancelled_.count(e.id) == 0) {
      live.push_back(e);
    }
  }
  heap_ = std::move(live);
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), Later());
  CheckInvariant();
}

void HeapEventQueue::CheckInvariant() const {
  // PendingCount() == callbacks_.size() by construction; the CHECK pins the
  // heap bookkeeping so the count can never underflow.
  CHECK_EQ(heap_.size(), callbacks_.size() + cancelled_.size());
}

void HeapEventQueue::DropCancelledHead() const {
  while (!heap_.empty()) {
    auto it = cancelled_.find(heap_.front().id);
    if (it == cancelled_.end()) {
      return;
    }
    cancelled_.erase(it);
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    heap_.pop_back();
  }
}

bool HeapEventQueue::Empty() const {
  DropCancelledHead();
  return heap_.empty();
}

double HeapEventQueue::NextTime() const {
  DropCancelledHead();
  if (heap_.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  return heap_.front().when;
}

EventQueue::Fired HeapEventQueue::Pop() {
  DropCancelledHead();
  CHECK(!heap_.empty());
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  heap_.pop_back();
  auto it = callbacks_.find(top.id);
  CHECK(it != callbacks_.end());
  Fired fired{top.when, top.id, std::move(it->second)};
  callbacks_.erase(it);
  return fired;
}

size_t HeapEventQueue::PendingCount() const {
  CheckInvariant();
  return callbacks_.size();
}

size_t HeapEventQueue::StoredCount() const {
  return heap_.size();
}

}  // namespace ursa
