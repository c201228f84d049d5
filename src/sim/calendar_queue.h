// Calendar-queue implementation of EventQueue (DESIGN.md section 12).
//
// A calendar queue buckets pending events by time: the "year"
// [year_start, year_start + nbuckets * width) is split into fixed-width day
// buckets, events beyond the year sit in an unsorted overflow list, and only
// the bucket currently being drained is kept sorted. With width tuned to the
// mean inter-event gap, Push/Pop/Cancel are amortized O(1) versus the binary
// heap's O(log n) — the difference that matters at 10k workers and millions
// of in-flight monotasks.
//
// Determinism contract (shared with HeapEventQueue, verified by
// event_queue_property_test): pops come out in ascending (when, id) order,
// ids are assigned monotonically from 1, and the bucket layout is a pure
// function of the Push/Pop/Cancel sequence — no wall clock, no randomness,
// no address-dependent ordering. The unordered id index is lookup-only
// (never iterated), so it cannot perturb order.
//
// Tombstones: Cancel marks the node and drops its callback immediately;
// whole-queue compaction runs as soon as tombstones outnumber live events,
// so StoredCount() < 2 * PendingCount() + 1 at all times.
#ifndef SRC_SIM_CALENDAR_QUEUE_H_
#define SRC_SIM_CALENDAR_QUEUE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "src/common/arena.h"
#include "src/sim/event_queue.h"

namespace ursa {

class CalendarEventQueue final : public EventQueue {
 public:
  EventId Push(double when, Callback cb) override;
  bool Cancel(EventId id) override;
  bool Empty() const override;
  double NextTime() const override;
  Fired Pop() override;
  size_t PendingCount() const override;
  size_t StoredCount() const override;

 private:
  struct Node {
    double when;
    EventId id;
    bool cancelled;
    Callback cb;
  };

  // Files `node` into its day bucket (or overflow). Clamps to the bucket
  // being drained when `when` precedes it — safe because all earlier buckets
  // are empty and the drained bucket is totally ordered by (when, id).
  void Place(Node* node);
  // Advances to the next non-empty bucket, sorting it on first touch and
  // discarding tombstones surfacing at its tail. Re-seeds the year from the
  // overflow list when the current year drains. Requires live_ > 0.
  void Settle() const;
  // Collects every stored node and rebuilds buckets/width around the current
  // event population (also drops all tombstones).
  void Rebuild() const;
  // Stable-erases tombstones from every bucket and the overflow list.
  void CompactAll();

  // All mutable: Empty/NextTime lazily sort, advance, and re-seed, mirroring
  // HeapEventQueue's mutable lazy-purge members.
  mutable ObjectPool<Node> pool_;
  mutable std::vector<std::vector<Node*>> buckets_;
  mutable std::vector<Node*> overflow_;
  mutable size_t cur_ = 0;          // Bucket being drained.
  mutable bool cur_sorted_ = false;  // buckets_[cur_] sorted?
  mutable double year_start_ = 0.0;
  mutable double width_ = 1.0;
  mutable size_t cancelled_count_ = 0;
  // Lookup-only (Cancel by id); never iterated, so determinism-neutral.
  std::unordered_map<EventId, Node*> index_;
  size_t live_ = 0;
  EventId next_id_ = 1;
};

}  // namespace ursa

#endif  // SRC_SIM_CALENDAR_QUEUE_H_
