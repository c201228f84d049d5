// Per-resource monotask queues maintained by each worker (section 4.2.3).
//
// Monotasks wait in the queue of their resource type until the worker can
// allocate that resource. Ordering is policy-driven, not FIFO:
//  * across jobs: by the job priority assigned by the scheduling policy
//    (EJF: admission order; SRJF: remaining-work rank);
//  * within a job: by an intra-job key the job manager computes — CPU
//    monotasks of a stage descending by input size (big tasks first shortens
//    the stage), network/disk monotasks ascending (make dependents ready
//    sooner);
//  * ties broken by enqueue sequence for determinism.
#ifndef SRC_EXEC_MONOTASK_QUEUE_H_
#define SRC_EXEC_MONOTASK_QUEUE_H_

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/dag/types.h"

namespace ursa {

// Cooperative cancellation handle (DESIGN.md section 9). The job manager
// keeps the mutable end and flips `cancelled` when a speculative race is
// decided; every RunnableMonotask of the losing copy shares the const end.
// A cancelled monotask must never deliver its callbacks: queued copies are
// dequeued by Worker::SweepCancelled before their resources are charged,
// in-flight copies are disarmed and their elapsed busy time is recorded as
// wasted work.
struct CancelToken {
  bool cancelled = false;
};

// A fully-resolved monotask handed to a worker for execution. The job
// manager resolves sizes and source locations before enqueueing, so the
// worker needs no knowledge of the DAG.
struct RunnableMonotask {
  JobId job = kInvalidId;
  MonotaskId id = kInvalidId;
  ResourceType type = ResourceType::kCpu;

  // CPU: byte-equivalents of compute. Disk: bytes read/written.
  double work = 0.0;
  // Network: pulls from source workers (bytes per source), all concurrent.
  struct Pull {
    WorkerId src = kInvalidId;
    double bytes = 0.0;
  };
  std::vector<Pull> pulls;

  // Total input bytes (for ordering, rate monitoring, APT accounting).
  double input_bytes = 0.0;

  // Ordering keys (smaller runs first).
  double job_priority = 0.0;
  double intra_key = 0.0;

  // Cancellation token shared by every monotask of one task copy; null for
  // non-cancellable work.
  std::shared_ptr<const CancelToken> cancel;

  // Tracing (src/obs): set by Worker::Submit. `queued_time` is when the
  // monotask entered the worker; `trace_id` is the sampled trace key (0 when
  // the monotask is not traced).
  double queued_time = 0.0;
  uint64_t trace_id = 0;

  // Fired on the simulator when the monotask finishes.
  std::function<void()> on_complete;
  // Fired instead of on_complete when the monotask fails: a transient
  // execution fault, or submission to an already-failed worker. Optional.
  std::function<void()> on_failure;
};

class MonotaskQueue {
 public:
  void Push(RunnableMonotask mt);
  bool Empty() const { return order_.empty(); }
  size_t Size() const { return order_.size(); }

  // Removes and returns the highest-priority monotask.
  RunnableMonotask Pop();

  // Re-sorts after job priorities changed (SRJF re-ranking). `priority_of`
  // maps a job id to its current priority.
  void Reprioritize(const std::function<double(JobId)>& priority_of);

  // Drops every queued monotask whose cancel token fired, without invoking
  // callbacks (cancellation means nobody is waiting for the result). Returns
  // the number removed.
  size_t RemoveCancelled();

  // Total queued input bytes (for APT load reporting).
  double queued_bytes() const { return queued_bytes_; }

 private:
  struct Entry {
    double job_priority;
    double intra_key;
    uint64_t seq;
    bool operator<(const Entry& other) const {
      if (job_priority != other.job_priority) {
        return job_priority < other.job_priority;
      }
      if (intra_key != other.intra_key) {
        return intra_key < other.intra_key;
      }
      return seq < other.seq;
    }
  };

  std::set<Entry> order_;
  // Indexed by seq; holes after Pop.
  std::vector<RunnableMonotask> slots_;
  std::vector<uint64_t> free_slots_;
  double queued_bytes_ = 0.0;
  uint64_t next_seq_ = 0;
};

}  // namespace ursa

#endif  // SRC_EXEC_MONOTASK_QUEUE_H_
