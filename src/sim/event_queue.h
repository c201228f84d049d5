// Priority queue of timestamped events with stable ordering and O(log n)
// lazy cancellation, plus FIFO lanes for fixed-delay event chains. Ties at
// the same timestamp fire in scheduling order (ascending EventId), which
// makes simulations deterministic for a fixed seed. DESIGN.md section 12
// documents the slab, the id encoding, the tombstone-compaction bound and
// the lanes.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>


namespace ursa {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class FixedDelayLane;
class Simulator;

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
// head of the heap is always live.
//
// Events armed on a FixedDelayLane bypass the heap: they take ids from the
// same push sequence, wait in the lane's FIFO, and Pop() takes whichever of
// the heap head and the lane heads is smallest by (when, id), so the pop
// order is exactly the one the heap alone would give.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  // A heap event carries its callback; a lane event carries its lane and
  // argument instead and leaves `cb` empty, so it allocates nothing.
  struct Fired {
    double when;
    EventId id;
    Callback cb;
    const FixedDelayLane* lane = nullptr;
    int32_t arg = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues `cb` to fire at absolute time `when`. Returns a handle usable
  // with Cancel(). Ids increase strictly across the queue's lifetime;
  // equal-time events fire in ascending-id (FIFO) order.
  EventId Push(double when, Callback cb);

  // Cancels a pending heap event. Cancelling an already-fired or
  // already-cancelled event, a lane event, or kInvalidEventId, is a no-op;
  // returns whether the event was actually pending.
  bool Cancel(EventId id);

  bool Empty() const { return heap_.empty() && lane_events_ == 0; }
  double NextTime() const;

  // Removes and returns the earliest event. Must not be called when Empty().
  Fired Pop();

  // Live (non-cancelled) events still pending, lane events included.
  size_t PendingCount() const;

  // Entries physically stored, including cancelled tombstones not yet
  // compacted. Tests use this to pin down tombstone-growth bounds.
  size_t StoredCount() const { return heap_.size() + lane_events_; }

 private:
  friend class FixedDelayLane;

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

  // The next id of the push sequence, naming `slot`.
  EventId NextId(EventId slot);
  // The lane holding the earliest pending event, or nullptr when that
  // event is the heap head (or nothing is pending).
  FixedDelayLane* NextLane() const;
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
  std::vector<FixedDelayLane*> lanes_;  // Registered lanes; expect one.
  size_t lane_events_ = 0;  // Events pending across all lanes.
};

// A chain of events that each fire a fixed delay after they were armed and
// all run one handler. Arm(arg) appends (now + delay, next id, arg) to a
// FIFO: the clock never goes back and adding a constant is monotone in
// floating point, so appends arrive in (when, id) order (CHECKed) and the
// FIFO head is the lane's earliest event without any heap work. A lane
// event takes no callback slot and builds no std::function, and it cannot
// be cancelled. The lane registers with its queue for its lifetime, so the
// queue (and the clock) must outlive it; destroying the lane drops its
// pending events.
class FixedDelayLane {
 public:
  using Handler = std::function<void(int32_t)>;

  // A lane on `sim`'s queue, armed at `sim`'s clock.
  FixedDelayLane(Simulator* sim, double delay, Handler handler);
  // A lane on `queue`, armed at `*now`, the time of the queue's owner.
  FixedDelayLane(EventQueue* queue, const double* now, double delay, Handler handler);
  ~FixedDelayLane();

  FixedDelayLane(const FixedDelayLane&) = delete;
  FixedDelayLane& operator=(const FixedDelayLane&) = delete;

  // Appends an event that runs the handler with `arg` at now + delay.
  EventId Arm(int32_t arg);

  void Fire(int32_t arg) const { handler_(arg); }

 private:
  friend class EventQueue;

  struct Entry {
    double when;
    EventId id;
    int32_t arg;
  };

  bool Empty() const { return head_ == fifo_.size(); }
  const Entry& Front() const { return fifo_[head_]; }
  Entry PopFront();

  EventQueue* queue_;
  const double* now_;
  double delay_;
  Handler handler_;
  // Pending events are fifo_[head_, size()); the popped prefix is erased
  // once it is the larger part, so steady-state arming allocates nothing.
  std::vector<Entry> fifo_;
  size_t head_ = 0;
};

}  // namespace ursa

#endif  // SRC_SIM_EVENT_QUEUE_H_
