// Monotask-level tracing & profiling (DESIGN.md section 8).
//
// The Tracer records, per monotask, the full lifecycle (queued -> dispatched
// -> completed/failed/lost, with resource type, worker, job id, input bytes,
// queue-wait and service durations), per-task scheduling milestones
// (ready/placed/completed), scheduler-tick spans (candidates scored, tasks
// placed, host wall-time per tick) and fault events (worker fail/recover,
// detections, rejoins). Events land in a fixed-capacity ring buffer so the
// overhead per event is one branch and one struct copy; when the ring wraps,
// the oldest events are dropped and counted.
//
// Two consumers exist:
//  * WriteChromeTrace exports the ring as Chrome `chrome://tracing` /
//    Perfetto-loadable JSON (async "b"/"e" pairs per monotask keyed by a
//    unique sequence id, instant events for everything else);
//  * SummarizeMonotasks / PrintSummary reduce the ring to per-resource
//    queue-wait and service-time histogram summaries for the text report,
//    through MonotaskTally, the rule tools/trace_summary applies to an
//    exported trace as well.
//
// Sampling: with TracerConfig::sample = N > 1, every Nth monotask (decided
// at queue time, sticky for the monotask's whole lifecycle so dispatch and
// completion events always pair up) is traced; task/tick/fault events are
// always recorded.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/dag/types.h"

namespace ursa {

enum class TraceEventKind : int8_t {
  // Monotask lifecycle (carry a pairing `seq`; kDispatch opens a span that
  // exactly one kComplete / kFail / kLost closes).
  kQueued = 0,
  kDispatch = 1,
  kComplete = 2,
  kFail = 3,   // Transient execution failure; resources were consumed.
  kLost = 4,   // In-flight work discarded by a worker-failure epoch change.
  // Task milestones (job manager).
  kTaskReady = 5,
  kTaskPlaced = 6,
  kTaskCompleted = 7,
  // Scheduler tick span.
  kTick = 8,
  // Fault path.
  kWorkerFail = 9,
  kWorkerRecover = 10,
  kDetection = 11,
  kRejoin = 12,
  // Speculation. kCancelled is a monotask finish kind (cooperative cancel of
  // a losing copy; resources were partially consumed, the elapsed time is
  // wasted work). The kSpec* kinds are task-level instants recording a
  // speculative copy's lifecycle: launched on another worker, won the race,
  // lost it (the original finished first), or was torn down for some other
  // reason (worker failure, lineage reset, job abort).
  kCancelled = 13,
  kSpecLaunched = 14,
  kSpecWon = 15,
  kSpecLost = 16,
  kSpecCancelled = 17,
  // Admission control & backpressure (DESIGN.md section 11). Job-level
  // instants: a job entering the active set, a job shed (at submit or by
  // eviction), a low-tier activation deferred under degradation, and a
  // backpressure level transition (job == kInvalidId for the latter).
  kAdmit = 18,
  kShed = 19,
  kDefer = 20,
  kBackpressure = 21,
  // A placement tick exhausted max_scored_pairs_per_tick and deferred the
  // remaining jobs to the next tick (job == kInvalidId; a = pairs scored,
  // b = admitted jobs with ready stages left ungathered). Recorded through
  // AdmissionEvent.
  kScoringTruncated = 22,
  // Control-plane message layer + scheduler crash-recovery (DESIGN.md
  // section 14). Recorded through WorkerEvent; worker == kInvalidId for
  // scheduler-side events (crash, recover, checkpoint, resync).
  kMsgDrop = 23,      // A send was dropped by the fault model.
  kMsgDup = 24,       // A send was duplicated by the fault model.
  kMsgFenced = 25,    // A delivery was discarded by epoch/incarnation fencing
                      // (a = a fenced report's channel; 0 for a primary's).
  kSchedCrash = 26,   // Scheduler crash injected; live state wiped.
  kSchedRecover = 27, // Scheduler back up (a = downtime + replay seconds).
  kCheckpoint = 28,   // Journal checkpoint taken (a = records folded).
  kResync = 29,       // Post-recovery worker resync (a = re-dispatches).
};

const char* TraceEventKindName(TraceEventKind kind);

// One ring slot. Field meaning depends on `kind`:
//   a: input bytes (monotask), candidates scored (tick), latency s (detection)
//   b: queue wait s (dispatch), service s (finish), placed count (tick)
struct TraceEvent {
  double t = 0.0;  // Simulated seconds.
  double a = 0.0;
  double b = 0.0;
  double wall_us = 0.0;          // Host wall-time of a tick (kTick only).
  uint64_t seq = 0;              // Monotask pairing id; 0 for non-monotask events.
  JobId job = kInvalidId;
  TaskId task = kInvalidId;
  MonotaskId monotask = kInvalidId;
  StageId stage = kInvalidId;
  WorkerId worker = kInvalidId;
  TraceEventKind kind = TraceEventKind::kQueued;
  int8_t resource = -1;          // ResourceType when >= 0.
  bool counted = true;           // Monotask held a concurrency slot.
};

struct TracerConfig {
  // Ring capacity in events; the oldest events are dropped past this.
  size_t capacity = size_t{1} << 20;
  // Trace every Nth monotask (1 = all). Decided at queue time, sticky.
  int sample = 1;
};

class Tracer {
 public:
  explicit Tracer(const TracerConfig& config = TracerConfig{});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- Recording (hot path). ---
  // Returns the monotask's trace id, or 0 when sampled out; callers pass the
  // id back on dispatch/finish so the whole lifecycle shares one key.
  uint64_t MonotaskQueued(double now, ResourceType r, WorkerId w, JobId j,
                          MonotaskId m, double bytes);
  void MonotaskDispatched(double now, uint64_t id, ResourceType r, WorkerId w, JobId j,
                          MonotaskId m, double bytes, double queue_wait, bool counted);
  // `kind` is kComplete, kFail, kLost or kCancelled; `service` is the span
  // duration.
  void MonotaskFinished(double now, uint64_t id, TraceEventKind kind, ResourceType r,
                        WorkerId w, JobId j, MonotaskId m, double bytes, double service,
                        bool counted);
  void TaskEvent(double now, TraceEventKind kind, JobId j, TaskId task, StageId stage,
                 WorkerId w);
  void SchedulerTick(double now, int64_t candidates, int64_t placed, double wall_us);
  // kWorkerFail / kWorkerRecover / kDetection / kRejoin; `latency` is the
  // detection latency in seconds for kDetection.
  void WorkerEvent(double now, TraceEventKind kind, WorkerId w, double latency = 0.0);
  // kAdmit / kShed / kDefer / kBackpressure. `a`/`b` meaning per kind:
  // admit -> (admission latency s, pending depth after admit); shed ->
  // (u_j, 0); defer -> (age s, 0); backpressure -> (level, throttle factor).
  // `tier` is the job's priority tier (stored in the stage field).
  void AdmissionEvent(double now, TraceEventKind kind, JobId j, int tier, double a,
                      double b);

  // --- Introspection. ---
  size_t size() const { return ring_.size(); }
  uint64_t dropped() const { return dropped_; }
  int sample() const { return config_.sample; }
  // Ring contents, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  // --- Export. ---
  // Chrome trace JSON ({"traceEvents": [...]}) with events in time order.
  void WriteChromeTrace(std::ostream& os) const;
  // Returns false (and logs) when the file cannot be written.
  bool WriteChromeTraceFile(const std::string& path) const;

  // --- Text report. ---
  struct ResourceSummary {
    int64_t queued = 0;
    int64_t dispatches = 0;
    int64_t completes = 0;
    int64_t fails = 0;
    int64_t lost = 0;
    int64_t cancelled = 0;
    double busy_time = 0.0;    // Counted service seconds of every span.
    double wasted_time = 0.0;  // Counted service seconds of cancelled spans.
    Summary queue_wait;        // Seconds.
    Summary service;           // Seconds.
  };
  // Reduced over the events currently retained in the ring.
  std::array<ResourceSummary, kNumMonotaskResources> SummarizeMonotasks() const;

  struct TickSummary {
    int64_t ticks = 0;
    int64_t candidates = 0;
    int64_t placed = 0;
    double total_wall_us = 0.0;
    double max_wall_us = 0.0;
  };
  // Aggregated over every tick of the run (not subject to ring eviction).
  const TickSummary& tick_summary() const { return ticks_; }

  // Prints the per-resource histogram summaries and the seeded tick counts;
  // host wall time is left out so the output is seed-deterministic.
  void PrintSummary(const std::string& title) const;

 private:
  void Push(const TraceEvent& event);

  TracerConfig config_;
  std::vector<TraceEvent> ring_;
  size_t next_slot_ = 0;     // Overwrite position once the ring is full.
  uint64_t dropped_ = 0;
  uint64_t next_seq_ = 0;    // Monotask trace ids handed out.
  uint64_t sample_counter_ = 0;
  TickSummary ticks_;
};

// Per-resource monotask totals, reduced from lifecycle events by one rule
// shared by the tracer's ring (SummarizeMonotasks) and an exported trace
// (tools/trace_summary), so both print the same rows:
//  * every closed span (complete, fail, lost or cancelled) adds its service
//    time to the service percentiles;
//  * every counted span adds its service time to busy_time. It held a core
//    or a disk arm that long, so busy_time equals the CPU and disk
//    StepTracker integrals (a lost span ends at its worker's failure, where
//    the trackers drop to zero);
//  * a counted cancelled span adds it to wasted_time as well.
class MonotaskTally {
 public:
  void Queued() { ++totals_.queued; }
  void Dispatched(double queue_wait);
  // `kind` is kComplete, kFail, kLost or kCancelled.
  void Finished(TraceEventKind kind, double service, bool counted);
  // The totals plus queue-wait and service percentiles.
  Tracer::ResourceSummary Result() const;

 private:
  Tracer::ResourceSummary totals_;
  std::vector<double> waits_;
  std::vector<double> services_;
};

}  // namespace ursa

#endif  // SRC_OBS_TRACE_H_
