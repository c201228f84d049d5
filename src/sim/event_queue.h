// Priority queue of timestamped events with stable ordering and O(log n)
// lazy cancellation. Ties at the same timestamp fire in scheduling order,
// which makes simulations deterministic for a fixed seed.
//
// `EventQueue` is the abstract interface; two implementations share its
// contract bit-for-bit (same Push/Cancel/Pop semantics, ties broken by
// ascending EventId):
//   * HeapEventQueue — binary heap, the paper-scale default.
//   * CalendarEventQueue (calendar_queue.h) — bucketed calendar queue with
//     amortized O(1) operations for the 10k-worker regime.
// MakeEventQueue() selects one by EventQueueKind; DESIGN.md section 12
// documents the data structures and the determinism argument.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>


namespace ursa {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Which concrete EventQueue a simulator drains (selected via config/CLI).
enum class EventQueueKind {
  kBinaryHeap,
  kCalendar,
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Fired {
    double when;
    EventId id;
    Callback cb;
  };

  virtual ~EventQueue() = default;

  // Enqueues `cb` to fire at absolute time `when`. Returns a handle usable
  // with Cancel(). Ids increase monotonically from 1 across the queue's
  // lifetime; equal-time events fire in ascending-id (FIFO) order.
  virtual EventId Push(double when, Callback cb) = 0;

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a no-op; returns whether the event was actually pending.
  virtual bool Cancel(EventId id) = 0;

  virtual bool Empty() const = 0;
  virtual double NextTime() const = 0;

  // Removes and returns the earliest event. Must not be called when Empty().
  virtual Fired Pop() = 0;

  // Live (non-cancelled) events still pending.
  virtual size_t PendingCount() const = 0;

  // Entries physically stored, including cancelled tombstones not yet
  // compacted. Tests use this to pin down tombstone-growth bounds.
  virtual size_t StoredCount() const = 0;
};

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind);
const char* EventQueueKindName(EventQueueKind kind);

// Binary-heap implementation. Cancellation is lazy (tombstones dropped when
// they surface at the heap top) but bounded: whenever tombstones outnumber
// live events the whole heap is compacted in one pass, so cancel-heavy
// workloads (speculation + chaos) keep StoredCount() < 2 * PendingCount() + 1.
class HeapEventQueue final : public EventQueue {
 public:
  EventId Push(double when, Callback cb) override;
  bool Cancel(EventId id) override;
  bool Empty() const override;
  double NextTime() const override;
  Fired Pop() override;
  size_t PendingCount() const override;
  size_t StoredCount() const override;

 private:
  struct Entry {
    double when;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;  // FIFO among same-time events.
    }
  };

  // Lazily drops cancelled entries from the heap head; `mutable` members let
  // the const observers (Empty, NextTime) share it without const_cast.
  void DropCancelledHead() const;
  // Rewrites the heap without tombstones once they outnumber live entries.
  void CompactIfWorthwhile();
  // heap_.size() == callbacks_.size() + cancelled_.size() always; CHECKed so
  // PendingCount can never underflow.
  void CheckInvariant() const;

  mutable std::vector<Entry> heap_;  // std::*_heap under Later.
  mutable std::unordered_set<EventId> cancelled_;
  // Callbacks stored out-of-heap so Entry stays trivially copyable.
  std::unordered_map<EventId, Callback> callbacks_;
  EventId next_id_ = 1;
};

}  // namespace ursa

#endif  // SRC_SIM_EVENT_QUEUE_H_
