// Priority queue of timestamped events with stable ordering and O(log n)
// lazy cancellation. Ties at the same timestamp fire in scheduling order
// (ascending EventId), which makes simulations deterministic for a fixed
// seed. DESIGN.md section 12 documents the tombstone-compaction bound.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>


namespace ursa {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// The binary heap below is the only queue. This single-value enum survives
// only because perfbench's set-up timer still passes
// `ExperimentConfig::queue_kind` to the Simulator constructor; it goes with
// the next benchmark change, together with that field and parameter.
enum class EventQueueKind {
  kBinaryHeap,
};

// Binary-heap queue. Cancellation is lazy (tombstones dropped when they
// surface at the heap top) but bounded: whenever tombstones outnumber live
// events the whole heap is compacted in one pass, so cancel-heavy workloads
// (speculation + chaos) keep StoredCount() < 2 * PendingCount() + 1.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Fired {
    double when;
    EventId id;
    Callback cb;
  };

  // Enqueues `cb` to fire at absolute time `when`. Returns a handle usable
  // with Cancel(). Ids increase monotonically from 1 across the queue's
  // lifetime; equal-time events fire in ascending-id (FIFO) order.
  EventId Push(double when, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a no-op; returns whether the event was actually pending.
  bool Cancel(EventId id);

  bool Empty() const;
  double NextTime() const;

  // Removes and returns the earliest event. Must not be called when Empty().
  Fired Pop();

  // Live (non-cancelled) events still pending.
  size_t PendingCount() const;

  // Entries physically stored, including cancelled tombstones not yet
  // compacted. Tests use this to pin down tombstone-growth bounds.
  size_t StoredCount() const;

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
