// Counters describing fault-tolerance behavior of one run:
// injected faults, heartbeat detections, monotask retries, lineage-recovery
// resets and full restarts. The scheduler owns one FaultCounters; job
// managers, the failure detector, the fault injector, the message layer and
// the speculation manager update its fields directly, so the metrics layer
// can report recovery behavior instead of merely asserting it.
#ifndef SRC_FAULT_FAULT_STATS_H_
#define SRC_FAULT_FAULT_STATS_H_

#include <cstdint>
#include <vector>

#include "src/dag/types.h"

namespace ursa {

struct FaultCounters {
  // --- Injected faults (written by the FaultInjector). ---
  int crashes_injected = 0;
  int recoveries_injected = 0;
  int transients_injected = 0;
  int degrades_injected = 0;

  // --- Detection (written by the scheduler / failure detector). ---
  int detections = 0;
  int rejoins = 0;
  // Sum over detections of (declare time - actual failure time).
  double total_detection_latency = 0.0;

  // --- Monotask-level failures (written by job managers). ---
  int transient_failures = 0;   // Monotask failed on a live worker.
  int worker_loss_failures = 0; // Monotask lost because its worker died.
  int retries = 0;              // Backoff resubmissions to the same worker.
  int escalations = 0;          // Task re-placements after exhausted retries.

  // --- Recovery (written by the scheduler / job managers). ---
  int tasks_reset = 0;                 // Tasks re-executed by lineage recovery.
  int full_restart_equivalent_tasks = 0;  // Started tasks a full restart would redo.
  int full_restarts = 0;               // Whole-job restarts (lineage disabled).
  // Per recovery episode: detection -> all reset tasks re-completed.
  std::vector<double> recovery_latencies;

  // --- Speculation (written by the speculation manager / job managers). ---
  int speculations_launched = 0;
  int speculations_won = 0;        // Copy finished first; original cancelled.
  int speculations_lost = 0;       // Original finished first; copy cancelled.
  int speculations_cancelled = 0;  // Copy torn down (worker failure, reset, abort).
  // Duplicate work discarded by first-finisher-wins cancellation, per
  // monotask resource: bytes actually processed by the losing side and the
  // busy seconds it held the resource for.
  double wasted_bytes[kNumMonotaskResources] = {};
  double wasted_seconds[kNumMonotaskResources] = {};

  // --- Control plane (written by the message layer / scheduler). ---
  int msgs_sent = 0;        // Message sends (including retransmissions).
  int msgs_lost = 0;        // Sends dropped by the fault model.
  int msgs_duplicated = 0;  // Sends delivered twice by the fault model.
  int msgs_delayed = 0;     // Sends hit by the extra-delay fault.
  int msgs_fenced = 0;      // Deliveries discarded by epoch/incarnation fencing.
  int dup_suppressed = 0;   // Duplicate deliveries absorbed by dedup.
  int retransmits = 0;      // Ack-timeout retransmissions.

  // --- Scheduler crash-recovery (written by the scheduler). ---
  int scheduler_crashes = 0;
  int scheduler_recoveries = 0;
  int checkpoints = 0;            // Periodic journal checkpoints taken.
  int64_t journal_records = 0;    // Decision-journal records appended.
  int redispatched_monotasks = 0; // Dispatches re-sent by post-crash resync.
  // Per crash episode: crash -> scheduler back up (downtime + replay).
  std::vector<double> scheduler_recovery_latencies;

  void RecordDetection(double latency) {
    ++detections;
    total_detection_latency += latency;
  }
  void RecordWastedWork(ResourceType r, double bytes, double seconds) {
    wasted_bytes[static_cast<int>(r)] += bytes;
    wasted_seconds[static_cast<int>(r)] += seconds;
  }

  double avg_detection_latency() const {
    return detections > 0 ? total_detection_latency / detections : 0.0;
  }
  double avg_recovery_latency() const {
    if (recovery_latencies.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double v : recovery_latencies) {
      sum += v;
    }
    return sum / static_cast<double>(recovery_latencies.size());
  }
  double total_wasted_seconds() const {
    double sum = 0.0;
    for (double v : wasted_seconds) {
      sum += v;
    }
    return sum;
  }
  double total_wasted_bytes() const {
    double sum = 0.0;
    for (double v : wasted_bytes) {
      sum += v;
    }
    return sum;
  }
  int speculations_active() const {
    return speculations_launched - speculations_won - speculations_lost -
           speculations_cancelled;
  }
  double avg_scheduler_recovery_latency() const {
    if (scheduler_recovery_latencies.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double v : scheduler_recovery_latencies) {
      sum += v;
    }
    return sum / static_cast<double>(scheduler_recovery_latencies.size());
  }
  bool any_faults() const {
    return crashes_injected + recoveries_injected + transients_injected + degrades_injected +
               detections + transient_failures + worker_loss_failures + full_restarts +
               speculations_launched + scheduler_crashes + msgs_lost + msgs_duplicated +
               msgs_delayed >
           0;
  }
};

}  // namespace ursa

#endif  // SRC_FAULT_FAULT_STATS_H_
