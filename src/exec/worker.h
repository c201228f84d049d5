// Simulated worker node.
//
// A worker owns the physical resources of one machine (CPU cores, memory,
// disks; its network links live in the FlowSimulator) and the per-resource
// monotask queues of section 4.2.3. It executes monotasks as resources free
// up, enforces concurrency limits (CPU = #cores, disk = 1 per disk, network =
// a small configurable constant), lets latency-sensitive small network
// monotasks bypass the queue, and monitors per-resource processing rates
// that the scheduler uses for APT load estimates (section 4.2.2).
//
// Worker also exposes raw occupancy/allocation trackers so the baseline
// runtimes (executor model, BSP) can account container-granular allocation
// against the same metrics pipeline.
#ifndef SRC_EXEC_WORKER_H_
#define SRC_EXEC_WORKER_H_

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/time_series.h"
#include "src/exec/monotask_queue.h"
#include "src/net/flow_simulator.h"
#include "src/sim/simulator.h"

namespace ursa {

class Tracer;

// Moves a gather's pulls into `dst` (section 4.2.3) and calls `done` when
// they have arrived. The paper's contention model considers only the
// receiver's bandwidth, so the concurrent pulls are one aggregate flow from
// the largest remote source; purely local gathers move at the local copy
// rate, and a gather of zero bytes finishes from a zero-delay event.
void StartGather(Simulator* sim, FlowSimulator* net, WorkerId dst,
                 const std::vector<RunnableMonotask::Pull>& pulls, std::function<void()> done);

struct WorkerConfig {
  int cores = 32;
  // Byte-equivalents of CPU work one core processes per second.
  double cpu_byte_rate = 250e6;
  double memory_bytes = 128.0 * 1024 * 1024 * 1024;
  int disks = 1;
  double disk_bytes_per_sec = 150e6;
  // Concurrency limit for network monotasks (paper: 1 to 4).
  int network_concurrency = 2;
  // Network monotasks smaller than this skip the queue (paper: 16KB).
  double small_transfer_bypass_bytes = 16.0 * 1024;
};

class Worker {
 public:
  Worker(Simulator* sim, FlowSimulator* net, WorkerId id, const WorkerConfig& config);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  WorkerId id() const { return id_; }
  const WorkerConfig& config() const { return config_; }

  // --- Monotask execution path (Ursa). ---
  // Enqueues a monotask. If the worker already failed, the monotask is not
  // executed and a failed report under its key goes out asynchronously, so
  // the submitting job manager never hangs on a silently-dropped monotask.
  void Submit(RunnableMonotask mt);
  // Re-sorts all queues after job priorities changed (SRJF).
  void Reprioritize(const std::function<double(JobId)>& priority_of);

  // --- Fault injection (section 4.3). ---
  // Marks the worker failed: queued monotasks are dropped (each reports its
  // failure asynchronously), in-flight completions are suppressed without a
  // report, memory accounting is zeroed, and further submissions are
  // rejected. Utilization trackers stop at the failure time.
  // Idempotent: calling Fail() on an already-failed worker is a no-op.
  void Fail();
  bool failed() const { return failed_; }
  // Simulated time of the most recent Fail(); -1 if never failed.
  double failed_since() const { return failed_since_; }
  // Incremented on every Fail(); lets the scheduler handle each failure
  // episode exactly once even when both an external FailWorker() call and
  // the heartbeat detector report it.
  int failure_epoch() const { return failure_epoch_; }

  // Brings a failed worker back online with empty queues, zeroed memory
  // accounting and factory-default processing rates. The failure detector's
  // next beat for this worker is how it learns of the rejoin. No-op if the
  // worker is not failed.
  void Recover();

  // --- Chaos knobs (FaultInjector). ---
  // The next `count` monotasks finishing on this worker fail instead of
  // completing: each is reported failed and its work is wasted.
  void InjectTransientFailures(int count) { pending_transient_failures_ += count; }
  // Degraded-rate (straggler) mode: CPU and disk monotasks run at `factor`
  // times normal speed (0 < factor <= 1 slows the worker down). The change
  // also applies to in-flight monotasks: work done so far is banked at the
  // old rate and the remainder is rescheduled at the new one, so short
  // injection windows slow (or speed up) work that was already dispatched.
  void set_speed_factor(double factor);

  // --- Cooperative cancellation (speculation, DESIGN.md section 9). ---
  // Dequeues queued monotasks whose cancel token fired (their resources were
  // never charged) and disarms cancelled in-flight CPU/disk monotasks: the
  // completion event is cancelled, the concurrency slot is freed immediately
  // and the elapsed busy time is reported as wasted work. In-flight network
  // monotasks cannot be retracted from the flow simulator; they are disarmed
  // when their flow completes.
  void SweepCancelled();
  // Sink for the wasted work of cancelled monotasks: bytes actually
  // processed by the losing copy and the seconds it occupied the resource.
  using WasteSink = std::function<void(ResourceType, double bytes, double seconds)>;
  void set_waste_sink(WasteSink sink) { waste_sink_ = std::move(sink); }

  // --- Memory accounting (task granularity). ---
  bool TryAllocateMemory(double bytes);
  void ReleaseMemory(double bytes);
  // Actual consumption, for UE_mem (may be below the allocated estimate).
  void AddActualMemoryUse(double delta);
  double free_memory() const { return config_.memory_bytes - mem_alloc_.current(); }
  double memory_capacity() const { return config_.memory_bytes; }

  // --- Load reporting for the scheduler. ---
  // APT_r(w): approximate seconds to finish all queued + running type-r
  // monotasks at the current processing rate. APT_cpu is 0 when the worker
  // has idle cores (paper section 4.2.2).
  double ApproxProcessingTime(ResourceType r) const;
  // Overall processing rate for resource r in bytes/s (CPU rate is per-core
  // rate times core count).
  double ProcessingRate(ResourceType r) const;
  bool HasIdleCpu() const { return busy_cores() < config_.cores; }
  int idle_cores() const { return config_.cores - busy_cores(); }

  // --- Raw occupancy hooks for baseline runtimes. ---
  // `delta` cores busy (actual compute) / allocated (container reservation).
  void AddCpuBusy(double delta);
  void AddCpuAllocated(double delta);
  void AddDiskBusy(double delta);

  // --- Metrics access. ---
  // Makes the five trackers below keep their change histories, for
  // utilization series. Call before the worker's first change.
  void KeepTrackerHistories();
  const StepTracker& cpu_busy_tracker() const { return cpu_busy_; }
  const StepTracker& cpu_alloc_tracker() const { return cpu_alloc_; }
  const StepTracker& mem_used_tracker() const { return mem_used_; }
  const StepTracker& mem_alloc_tracker() const { return mem_alloc_; }
  const StepTracker& disk_busy_tracker() const { return disk_busy_; }
  const StepTracker& net_rx_tracker() const { return net_->rx_tracker(id_); }
  double downlink() const { return net_->downlink(id_); }

  // Completed monotask counters (per resource), for tests.
  int64_t completed(ResourceType r) const { return completed_[static_cast<size_t>(r)]; }

  // --- Tracing (src/obs). ---
  // Attaches an event tracer (not owned; may be null). Every monotask
  // lifecycle transition and fault event on this worker is recorded.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // --- Incremental load maintenance (DESIGN.md section 12). ---
  // At most one listener; invoked with this worker's id whenever an input of
  // the scheduler's load snapshot changes (queue depths, running bytes,
  // measured rates, memory allocation, fail/recover). The callback must be
  // cheap — the scheduler just marks the worker dirty — and must not call
  // back into the worker.
  void set_load_listener(std::function<void(WorkerId)> listener) {
    load_listener_ = std::move(listener);
  }

  // At most one listener; invoked with this worker's id at the end of every
  // Fail() (once per failure episode, regardless of who injected it). The
  // control plane uses it to drop the worker's delivered-dispatch dedup set:
  // that set models worker-side state, so it dies with the machine and the
  // post-recovery resync can re-send dispatches the dead process had acked.
  void set_fail_listener(std::function<void(WorkerId)> listener) {
    fail_listener_ = std::move(listener);
  }

  // At most one listener; the one route of every monotask outcome. It gets
  // {key, failed, this worker's id} for each submitted monotask that
  // completes (failed = false), fails transiently, is submitted while the
  // worker is failed, or is still queued when Fail() drains the queues (all
  // failed = true). The last two are deferred through the simulator, never
  // sent from inside Submit() or Fail(). Cancelled monotasks and monotasks
  // in flight at Fail() are not reported. The control plane installs it.
  void set_report_listener(std::function<void(const CompletionMsg&)> listener) {
    report_listener_ = std::move(listener);
  }

  // Current occupancy, for invariant checks in tests.
  int busy_cores() const { return slots_[static_cast<size_t>(ResourceType::kCpu)]; }
  int busy_disks() const { return slots_[static_cast<size_t>(ResourceType::kDisk)]; }
  int active_network() const { return slots_[static_cast<size_t>(ResourceType::kNetwork)]; }
  double running_bytes(ResourceType r) const { return running_bytes_[static_cast<size_t>(r)]; }
  double cpu_busy_now() const { return cpu_busy_.current(); }
  double disk_busy_now() const { return disk_busy_.current(); }
  // No monotask queued or in flight (always true while failed).
  bool idle() const {
    return inflight_.empty() && std::all_of(std::begin(queues_), std::end(queues_),
                                            [](const MonotaskQueue& q) { return q.Empty(); });
  }

 private:
  struct RateMonitor {
    double rate = 0.0;          // Last computed rate (bytes/s per "lane").
    double window_start = 0.0;
    double acc_bytes = 0.0;
    double acc_time = 0.0;
  };

  // One dispatched monotask of any resource, from dispatch until it
  // completes, is disarmed as cancelled or is lost to Fail(). A CPU or disk
  // entry owns its completion event; keeping the remaining work and effective
  // rate here lets set_speed_factor reschedule mid-flight and lets
  // SweepCancelled disarm a losing copy promptly. A network entry's finish
  // time is owned by the FlowSimulator, so its `event` stays invalid and its
  // flow calls FinishInFlight. Keys are never reused, so a completion that
  // outlives its entry (failure, cancellation) finds nothing and is a no-op.
  struct InFlight {
    ResourceType type = ResourceType::kCpu;
    double input_bytes = 0.0;
    double work = 0.0;       // Total work bytes (CPU/disk).
    double done_work = 0.0;  // Work banked before the last (re)schedule.
    double start = 0.0;      // Dispatch time.
    double resumed = 0.0;    // Last (re)schedule time.
    double rate = 0.0;       // Effective bytes/s since `resumed`.
    bool counted = true;
    MsgKey key;
    uint64_t trace_id = 0;
    std::shared_ptr<const CancelToken> cancel;
    EventId event = kInvalidEventId;
  };

  MonotaskQueue& queue(ResourceType r) { return queues_[static_cast<size_t>(r)]; }
  const MonotaskQueue& queue(ResourceType r) const {
    return queues_[static_cast<size_t>(r)];
  }

  // Concurrency limit for resource `r` (cores, disk arms, network slots).
  int SlotLimit(ResourceType r) const;
  // Starts queued monotasks while concurrency allows.
  void PumpQueue(ResourceType r);
  // Runs one monotask (resource already accounted by the caller).
  void Execute(RunnableMonotask mt, bool counted);
  // Completion target of every in-flight monotask: CPU/disk completion
  // events and network flows alike.
  void FinishInFlight(uint64_t key);
  void OnMonotaskDone(const InFlight& fl, double elapsed);
  // Final accounting for a cancelled monotask: releases running bytes and
  // the concurrency slot, records the kCancelled trace span and reports
  // `done_bytes` / `elapsed` to the waste sink.
  void DiscardCancelled(const InFlight& fl, double elapsed, double done_bytes);
  // Charges (`delta` = +1) or returns (-1) the busy core or disk arm of a
  // counted CPU/disk monotask; network transfers have no occupancy tracker.
  void AddCountedOccupancy(const InFlight& fl, double delta);
  // Effective CPU/disk processing rate of one lane under the speed factor.
  double WorkRate(ResourceType r) const;
  // Adds `delta` to the bytes being processed on `r`, clamping at zero.
  void AddRunningBytes(ResourceType r, double delta);
  // Work completed so far by an in-flight entry at time `now`.
  static double DoneWork(const InFlight& fl, double now);
  void RecordRate(ResourceType r, double bytes, double elapsed);
  // Sends the outcome of the dispatch `key` to the report listener, now or
  // (for monotasks this worker never ran) from a fresh simulator event.
  void Report(const MsgKey& key, bool failed);
  void ReportFailureLater(const MsgKey& key);
  // Factory-default rates: the configured CPU and disk rates, and the
  // worker's downlink for the network before any transfer is measured.
  void ResetRateMonitors(double now);
  // Notifies the scheduler's dirty set; safe to call redundantly.
  void MarkLoadChanged() {
    if (load_listener_) {
      load_listener_(id_);
    }
  }

  Simulator* sim_;
  FlowSimulator* net_;
  WorkerId id_;
  WorkerConfig config_;
  Tracer* tracer_ = nullptr;

  MonotaskQueue queues_[kNumMonotaskResources];
  // Ordered map: Fail, set_speed_factor and SweepCancelled walk it in
  // dispatch order, which fixes the order of the events they cancel and
  // schedule; PumpQueue (via DiscardCancelled) may insert new entries while
  // SweepCancelled iterates, which std::map iterators tolerate.
  std::map<uint64_t, InFlight> inflight_;
  uint64_t next_inflight_key_ = 1;
  WasteSink waste_sink_;
  bool failed_ = false;
  double failed_since_ = -1.0;
  int failure_epoch_ = 0;
  // Chaos state.
  int pending_transient_failures_ = 0;
  double speed_factor_ = 1.0;
  std::function<void(WorkerId)> load_listener_;
  std::function<void(WorkerId)> fail_listener_;
  std::function<void(const CompletionMsg&)> report_listener_;

  // Per resource: concurrency slots in use, bytes of input being processed,
  // and completed monotasks (cumulative; survives failures).
  int slots_[kNumMonotaskResources] = {};
  double running_bytes_[kNumMonotaskResources] = {};
  int64_t completed_[kNumMonotaskResources] = {};

  RateMonitor rates_[kNumMonotaskResources];

  // Occupancy and memory accounting; each tracker's current() is the live
  // value.
  StepTracker cpu_busy_;
  StepTracker cpu_alloc_;
  StepTracker mem_used_;
  StepTracker mem_alloc_;
  StepTracker disk_busy_;
};

}  // namespace ursa

#endif  // SRC_EXEC_WORKER_H_
