// Priority queue of timestamped events with stable ordering and O(log n)
// lazy cancellation. Ties at the same timestamp fire in scheduling order
// (ascending EventId), which makes simulations deterministic for a fixed
// seed. DESIGN.md section 12 documents the slab, the id encoding and the
// tombstone-compaction bound.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
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

// Binary-heap queue over a slab of callback slots. An EventId is
// `(push sequence << kSlotBits) | slot`: ids rise strictly with push order,
// and the slot they name stores the id of its current occupant, so a stale
// id (fired or cancelled, its slot since reused) never matches. Cancellation
// frees the slot at once and leaves the heap entry as a tombstone that is
// dropped when it reaches the head; whenever tombstones outnumber live
// events the whole heap is compacted in one pass, so cancel-heavy workloads
// (speculation + chaos) keep StoredCount() < 2 * PendingCount() + 1. The
// head of the heap is always live, so Empty() and NextTime() are O(1) reads.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Fired {
    double when;
    EventId id;
    Callback cb;
  };

  // Enqueues `cb` to fire at absolute time `when`. Returns a handle usable
  // with Cancel(). Ids increase strictly across the queue's lifetime;
  // equal-time events fire in ascending-id (FIFO) order.
  EventId Push(double when, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event, or kInvalidEventId, is a no-op; returns whether the event was
  // actually pending.
  bool Cancel(EventId id);

  bool Empty() const { return heap_.empty(); }
  double NextTime() const;

  // Removes and returns the earliest event. Must not be called when Empty().
  Fired Pop();

  // Live (non-cancelled) events still pending.
  size_t PendingCount() const;

  // Entries physically stored, including cancelled tombstones not yet
  // compacted. Tests use this to pin down tombstone-growth bounds.
  size_t StoredCount() const { return heap_.size(); }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  // 16 bytes; the slot is the id's low kSlotBits.
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
  struct Slot {
    EventId id = kInvalidEventId;  // The occupant's id; kInvalidEventId = free.
    Callback cb;
  };

  bool IsLive(const Entry& e) const { return slots_[e.id & kSlotMask].id == e.id; }
  size_t LiveCount() const { return slots_.size() - free_slots_.size(); }
  // Empties slot `s` and returns it to the free list.
  void FreeSlot(EventId s);
  // Pops tombstones off the heap head, restoring the live-head invariant.
  void DropCancelledHead();
  // Rewrites the heap without tombstones once they outnumber live entries.
  void CompactIfWorthwhile();

  std::vector<Entry> heap_;  // std::*_heap under Later.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // LIFO, so hot slots are reused first.
  size_t tombstones_ = 0;  // heap_.size() == live + tombstones_ always.
  EventId next_seq_ = 1;
};

}  // namespace ursa

#endif  // SRC_SIM_EVENT_QUEUE_H_
