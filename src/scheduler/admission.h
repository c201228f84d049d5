// SLO-aware admission control, backpressure and graceful load shedding for
// open-loop serving (DESIGN.md section 11).
//
// The controller sits in front of UrsaScheduler's memory-based admission: a
// submitted job first passes through a *bounded* pending queue. When the
// queue is full, one job — the incoming one or a queued one, chosen by the
// priority-tier shed rule — is shed instead of letting the admitted-job set
// grow without bound. Jobs move from pending to active through a
// utilization-bound gate in the spirit of `checkUvalue` from the real-time
// containers literature: with u_j = (expected busiest-resource service
// seconds of job j) / SLO_j, the sum of u_j over active jobs plus the
// candidate must stay below `utilization_bound`, so every admitted job still
// has a schedulable path to its deadline.
//
// Backpressure is derived from three signals — pending-queue fill ratio,
// cluster-wide D_r headroom, and the admission-latency EWMA — and drives a
// graceful-degradation ladder instead of collapse:
//   kNone     -> normal operation;
//   kThrottle -> the open-loop driver stretches inter-arrival gaps by
//                throttle_factor() (client backoff);
//   kDegrade  -> additionally, speculation is suspended and low-tier
//                admissions are deferred (with a starvation-age override).
#ifndef SRC_SCHEDULER_ADMISSION_H_
#define SRC_SCHEDULER_ADMISSION_H_

#include <vector>

#include "src/dag/types.h"

namespace ursa {

// A pending job that survived this many shed rounds is protected from
// eviction (the shed rule's starvation guard).
inline constexpr int kStarvationGuard = 4;
// A deferred low-tier job older than this (seconds) is admitted despite
// degradation (the deferral side of the starvation guard).
inline constexpr double kDeferAgeCap = 60.0;
// Backpressure thresholds on the pending-queue fill ratio.
inline constexpr double kThrottleStart = 0.5;
inline constexpr double kDegradeStart = 0.75;
// Mean per-resource D_r headroom below which the cluster counts as
// saturated (bumps the backpressure level by one).
inline constexpr double kHeadroomFloor = 0.05;

enum class BackpressureLevel : int {
  kNone = 0,
  kThrottle = 1,  // Arrival throttling only.
  kDegrade = 2,   // + suspend speculation, defer low-tier admissions.
};
const char* BackpressureLevelName(BackpressureLevel level);

struct AdmissionConfig {
  bool enabled = false;
  // Bound on the pending (accepted-but-not-active) queue depth.
  int max_pending = 64;
  // checkUvalue-style bound on the sum of u_j = service_seconds / SLO over
  // active jobs; a candidate whose admission would exceed it stays pending.
  double utilization_bound = 4.0;
  // SLO applied to jobs that declare none (JobSpec::slo_seconds == 0).
  double default_slo = 300.0;
  // Arrival gaps are stretched up to this factor under backpressure.
  double max_throttle_factor = 4.0;
};

// The controller's counters. Identity maintained:
//   submitted == admitted + shed + pending_now.
struct AdmissionCounters {
  int64_t submitted = 0;       // Jobs offered to the controller.
  int64_t accepted = 0;        // Entered the pending queue.
  int64_t admitted = 0;        // Moved pending -> active.
  int64_t shed = 0;            // Rejected at submit or evicted from pending.
  int64_t slo_rejects = 0;     // Shed because u_j alone exceeds the bound.
  int64_t evictions = 0;       // Shed from the pending queue (subset of shed).
  int64_t deferrals = 0;       // Low-tier activation deferrals while degraded.
  int64_t level_changes = 0;   // Backpressure level transitions.
  int pending_now = 0;
  int max_pending_depth = 0;   // High-water mark of the pending queue.
  double total_admission_latency = 0.0;  // Sum over admitted jobs (seconds).
  double admission_latency_ewma = 0.0;
  BackpressureLevel level = BackpressureLevel::kNone;
  double avg_admission_latency() const {
    return admitted > 0 ? total_admission_latency / static_cast<double>(admitted) : 0.0;
  }
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  struct JobInfo {
    JobId id = kInvalidId;
    int tier = 0;                   // 0 = highest priority.
    double expected_seconds = 0.0;  // Busiest-resource service seconds.
    double slo = 0.0;               // 0 = use config default.
  };

  struct Decision {
    bool accepted = false;        // Entered the pending queue.
    JobId evicted = kInvalidId;   // Pending job shed to make room.
    const char* reason = "";      // "", "queue-full", "slo-unattainable", "evicted".
  };

  // Submission gate: hopeless-SLO rejection and the bounded-queue shed
  // rule. On eviction the caller must also shed `evicted` on its side
  // (record, waiting list, trace).
  Decision OnSubmit(const JobInfo& info, double now);

  // Activation gate for one pending job. `has_competing_work`: a
  // higher-priority (numerically smaller tier) job is also waiting, so
  // deferring this one frees its slot for that job; without it the tier
  // deferral is suppressed so deferral never idles or deadlocks the cluster.
  enum class Gate : int { kAdmit = 0, kDeferTier = 1, kBlockedUtilization = 2 };
  Gate GateActivation(JobId id, double now, bool has_competing_work);

  // The scheduler committed the pending job to the active set.
  void OnActivated(JobId id, double now);

  // An active job finished; its utilization share is released.
  void OnJobFinished(JobId id);

  // Tick-time refresh of the backpressure level from the queue fill ratio,
  // the cluster-wide mean D_r headroom and the admission-latency EWMA.
  // Returns true when the level changed.
  bool UpdateBackpressure(double avg_headroom);

  BackpressureLevel level() const { return level_; }
  // >= 1; the open-loop driver multiplies inter-arrival gaps by this.
  double throttle_factor() const;

  const AdmissionCounters& counters() const { return c_; }

 private:
  struct PendingEntry {
    JobId id = kInvalidId;
    int tier = 0;
    double u = 0.0;  // expected_seconds / slo.
    double submit_time = 0.0;
    int shed_rounds_survived = 0;
  };
  struct ActiveEntry {
    JobId id = kInvalidId;
    double u = 0.0;
  };

  // Index into pending_, or -1.
  int FindPending(JobId id) const;
  // Victim among pending + incoming: the lowest tier (largest tier number),
  // newest first, skipping pending jobs protected by kStarvationGuard.
  // Returns -1 to shed the incoming job.
  int PickVictim(const PendingEntry& incoming) const;
  double pending_ratio() const {
    return config_.max_pending > 0
               ? static_cast<double>(pending_.size()) / config_.max_pending
               : 0.0;
  }

  const AdmissionConfig config_;
  // Arrival order; bounded by config_.max_pending.
  std::vector<PendingEntry> pending_;
  // Active jobs' utilization shares (vector: active sets are small and
  // ordered iteration keeps the controller deterministic).
  std::vector<ActiveEntry> active_;
  double active_u_ = 0.0;
  BackpressureLevel level_ = BackpressureLevel::kNone;
  AdmissionCounters c_;
};

}  // namespace ursa

#endif  // SRC_SCHEDULER_ADMISSION_H_
