// Ursa's centralized scheduler (section 4.2.2): memory-based job admission
// and the stage-aware, load-balanced task placement of Algorithm 1.
//
// The scheduler runs in batches at a configurable scheduling interval. At
// each tick it:
//   1. admits queued jobs in policy order while the cluster-wide memory
//      reservation fits (preventing memory deadlock);
//   2. refreshes SRJF priorities (job ranks from remaining work R against
//      cluster load L) and re-sorts worker queues if they changed;
//   3. runs Algorithm 1: for every stage with ready tasks it computes a
//      placement plan and a score from the per-worker load headroom
//      D_r(w) = max(0, (EPT - APT_r(w)) / EPT) and the load increase
//      Inc_r(t, w), places the best-scoring stage, and repeats until no
//      stage can place any task.
//
// Ablation switches reproduce section 5.2: `consider_network` drops the
// network dimension from scoring, `stage_aware` switches to per-task
// placement, and `enable_job_ordering` / `enable_monotask_ordering` gate the
// two enforcement mechanisms of Table 6.
#ifndef SRC_SCHEDULER_URSA_SCHEDULER_H_
#define SRC_SCHEDULER_URSA_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/baselines/packing_schedulers.h"
#include "src/ctrl/control_plane.h"
#include "src/ctrl/journal.h"
#include "src/dag/critical_path.h"
#include "src/exec/cluster.h"
#include "src/exec/job_manager.h"
#include "src/fault/failure_detector.h"
#include "src/fault/fault_stats.h"
#include "src/metrics/metrics.h"
#include "src/scheduler/admission.h"
#include "src/scheduler/job_ordering.h"
#include "src/scheduler/placement_policy.h"
#include "src/spec/speculation.h"

namespace ursa {

struct UrsaSchedulerConfig {
  // Task placement batching interval (seconds).
  double scheduling_interval = 0.25;
  OrderingPolicy policy = OrderingPolicy::kEjf;
  // Placement algorithm: Algorithm 1, or one of the section 5.1.2
  // comparison algorithms (Tetris / Tetris2 / Capacity).
  PlacementAlgorithm placement = PlacementAlgorithm::kAlgorithm1;
  // --- Ablations (section 5.2 / Table 6). ---
  bool consider_network = true;
  bool stage_aware = true;
  bool enable_job_ordering = true;
  bool enable_monotask_ordering = true;
  // Fault tolerance (section 4.3): heartbeat detection, lineage recovery
  // and the transient-failure retry policy.
  FaultToleranceConfig fault;
  // Straggler mitigation by speculative execution (DESIGN.md section 9).
  SpeculationConfig spec;
  // SLO-aware admission control, backpressure and load shedding for
  // open-loop serving (DESIGN.md section 11).
  AdmissionConfig admission;
  // Scheduler<->worker message layer + scheduler crash-recovery (DESIGN.md
  // section 14). Disabled by default: every send is a synchronous
  // pass-through, with no simulator events and no RNG draws.
  ControlPlaneConfig ctrl;
  // --- Hot-path self-checks (DESIGN.md section 12). ---
  // CHECK every incremental load refresh against a full rescan, and every
  // bucketed BestWorker call against the linear scan (same worker, same
  // score bits). Costs one full snapshot per refresh and one O(W) scan per
  // call; never changes a decision or a counter. Defaults on in debug builds
  // only.
#ifndef NDEBUG
  bool verify_hot_path = true;
#else
  bool verify_hot_path = false;
#endif
  // Guard against pathological candidate explosions in a single tick: at
  // most this many (task, worker) pairs are scored per placement pass. Jobs
  // past the budget are deferred to the next tick, a tick that defers any is
  // counted in scheduler_counters().scoring_truncated, and the gather start
  // rotates so deferred jobs are not starved.
  size_t max_scored_pairs_per_tick = 2'000'000;
};

class UrsaScheduler : public JobManagerListener {
 public:
  UrsaScheduler(Simulator* sim, Cluster* cluster, const UrsaSchedulerConfig& config);
  ~UrsaScheduler() override;

  // Submits a job at the current simulation time. The scheduler owns the job
  // and its job manager.
  void SubmitJob(std::unique_ptr<Job> job);

  // External fault injection (section 4.3): kills the worker and handles the
  // failure immediately (without waiting for the heartbeat detector).
  // Recovery is stage-level lineage recovery by default, or a full restart
  // from the input checkpoint when `fault.enable_lineage_recovery` is off.
  // Returns the number of jobs affected; idempotent — a second call on an
  // already-failed worker returns 0 and changes nothing.
  int FailWorker(WorkerId worker);
  int total_restarts() const { return total_restarts_; }

  // --- Scheduler crash injection (DESIGN.md section 14). ---
  // Crashes the scheduler control plane for `downtime` seconds: live
  // job-manager state is wiped, the message-layer epoch is bumped (fencing
  // every in-flight dispatch), ticks and failure handling are suspended, and
  // submissions arriving while down are parked. Recovery restores job state
  // from the checkpoint+journal when journaling is on (checkpoint_interval >
  // 0) — orphaned monotasks keep running on their workers and re-attach —
  // or falls back to full restarts of every live job when it is off.
  // Requires config.ctrl.enabled; a crash while already down is ignored.
  void InjectSchedulerCrash(double downtime);
  bool scheduler_down() const { return down_; }
  const ControlPlane* control_plane() const { return ctrl_.get(); }
  // Null when journaling is disabled.
  const Journal* journal() const { return journal_.get(); }

  // Recovery/retry/detection counters for this run (also written to by the
  // failure detector, the job managers and the FaultInjector).
  const FaultCounters& fault_stats() const { return fault_stats_; }
  FaultCounters* mutable_fault_stats() { return &fault_stats_; }
  const FailureDetector* failure_detector() const { return detector_.get(); }
  // Null when speculation is disabled.
  const SpeculationManager* speculation_manager() const { return spec_manager_.get(); }
  AdmissionCounters admission_counters() const {
    return admission_ != nullptr ? admission_->counters() : AdmissionCounters{};
  }
  // Backoff multiplier the open-loop driver applies to inter-arrival gaps;
  // 1.0 with admission control disabled or no backpressure.
  double admission_throttle_factor() const {
    return admission_ != nullptr ? admission_->throttle_factor() : 1.0;
  }

  // JobManagerListener:
  void OnTaskReady(JobId job, TaskId task) override;
  void OnTaskCompleted(JobId job, TaskId task) override;
  void OnJobFinished(JobId job) override;

  // Every submitted job is resolved: it either completed or was shed by
  // admission control.
  bool AllJobsFinished() const { return finished_jobs_ + shed_jobs_ == total_jobs_; }
  int finished_jobs() const { return finished_jobs_; }
  int shed_jobs() const { return shed_jobs_; }
  int total_jobs() const { return total_jobs_; }

  const std::vector<JobRecord>& job_records() const { return records_; }
  const JobManager* job_manager(JobId id) const;

  // Called at the end of every job finish, at the finish instant.
  void set_job_finished_listener(std::function<void()> listener) {
    job_finished_listener_ = std::move(listener);
  }

  // Attaches an event tracer (src/obs) recording tick spans and fault
  // events; propagated to every job manager started afterwards and to the
  // message layer. Not owned. Call before submitting jobs.
  void set_tracer(Tracer* tracer);

  // Hot-path instrumentation (DESIGN.md section 12), cumulative over the
  // run. Sim-thread state: read after the run (or from sim callbacks).
  struct SchedulerCounters {
    int64_t ticks = 0;
    int64_t load_refreshes = 0;     // Dirty workers recomputed incrementally.
    int64_t bestworker_calls = 0;
    int64_t workers_scanned = 0;    // Scan entries examined across all calls.
    int64_t scoring_truncated = 0;  // Ticks that deferred a job to the budget.
  };
  SchedulerCounters scheduler_counters() const { return counters_; }

 private:
  struct JobEntry {
    std::unique_ptr<Job> job;
    std::unique_ptr<JobManager> jm;
    bool admitted = false;
    bool finished = false;
    bool shed = false;  // Rejected or evicted by admission control; never ran.
    // Bumped on every full restart (and on journal-less crash recovery);
    // wire reports from an older incarnation's executions are fenced.
    int incarnation = 0;
    double srjf_rank = 0.0;
    // Graphene: per-stage critical-path analysis (empty unless computed).
    StageCriticality crit;
  };

  void EnsureTickScheduled();
  void Tick();
  void TryAdmitJobs();
  void RefreshPriorities();
  // Placement volume of one tick, for the tick trace events.
  struct PlacementStats {
    int64_t candidates = 0;  // Ready tasks scored against the cluster.
    int64_t placed = 0;      // Tasks committed to workers.
  };
  PlacementStats RunPlacement();
  PlacementStats RunPackingPlacement();
  // Straggler pass of one tick: collect candidates from every admitted job,
  // rank by estimated time to finish and, within the budget, place copies on
  // workers chosen by the same placement score as primary placement.
  void RunSpeculation();

  // Busiest-resource service seconds of `job` against the aggregate rates of
  // the live cluster; the u_j numerator of the admission utilization gate.
  double EstimateExpectedSeconds(const Job& job) const;
  // Mean D_r headroom across live workers — the backpressure saturation
  // signal fed to the admission controller every tick.
  double AvgHeadroom();
  // Sheds an unadmitted job: removes it from the waiting list, stamps its
  // record and trace event, and counts it resolved.
  void ShedJob(JobId id);

  // Recovery entry point shared by FailWorker() and the heartbeat detector.
  // Handles each worker-failure epoch exactly once; returns affected jobs.
  int HandleWorkerFailure(WorkerId worker);
  // The reconciliation body: drops the worker's metadata, resets dependent
  // tasks and stamps handled_epoch_. Unlike HandleWorkerFailure it does not
  // require the worker to still be failed() — the post-crash recovery pass
  // uses it for workers that crashed AND rejoined while the scheduler was
  // down. Returns affected jobs.
  int ReconcileWorkerFailure(WorkerId worker);
  void OnWorkerRejoined(WorkerId worker);
  // Restarts one job from its input checkpoint with a fresh job manager;
  // the aborted one is freed at once.
  void FullRestart(JobEntry& entry);
  // Creates and configures (but does not start) a job manager for `entry`.
  void ConfigureJobManager(JobEntry& entry);
  // Creates and starts a job manager for an admitted or restarted job.
  void StartJobManager(JobEntry& entry);
  // Creates a job manager and rebuilds its runtime state from a journal
  // image (scheduler crash-recovery) instead of starting fresh.
  void RestoreJobManager(JobEntry& entry, const JobImage& image);
  // Routes every identity-addressed completion/failure report, a primary's
  // or a speculative copy's, to the incarnation that owns the job, or fences
  // it (a finished job's or a dead incarnation's report, with or without the
  // message layer).
  void DeliverCompletion(const ControlPlane::CompletionMsg& msg);
  // Brings the scheduler back up after InjectSchedulerCrash: restores or
  // restarts every live job, reconciles currently-failed workers, re-sends
  // unacked dispatches and resubmits parked jobs.
  void RecoverScheduler();
  // Periodic checkpoint chain (journaling only), mirroring the tick chain.
  void EnsureCheckpointScheduled();
  void CheckpointTick();

  // One candidate placement for a stage of ready tasks.
  struct StagePlan {
    JobId job = kInvalidId;
    StageId stage = kInvalidId;
    double score = 0.0;
    std::vector<std::pair<TaskId, WorkerId>> assignments;
    bool complete = false;  // All ready tasks of the stage placed.
  };
  // Per-worker load snapshot: ursa::WorkerLoad (src/scheduler/
  // placement_policy.h), the input of Algorithm1Score.

  // Workers whose loads diverged from the tick-start base during the current
  // placement pass, grouped by bit-identical current load exactly like the
  // base scan buckets: wide placement rounds touch most of the cluster, but
  // with uniform tasks the modified loads collapse into a handful of
  // distinct values, each scored once per BestWorker call. `key` and `mask`
  // are exact for the bucket's current load (workers move buckets on every
  // placement).
  struct OverlayBucket {
    double key[kNumResourceDims] = {};  // BoundKeys of `load`.
    uint32_t mask = 0;  // Same encoding as ScanBucket::mask, always current.
    WorkerLoad load;
    std::vector<WorkerId> members;  // Ascending ids; empty = tombstone.
  };

  // Read-only view over the per-tick load state (DESIGN.md section 12): the
  // master vector plus the placement overlay of modified workers
  // (overlay_slot_, overlay_buckets_), so candidate scoring and the commit
  // pass avoid copying all W loads. `headroom` counts workers with d_r > 0
  // in the view — the incrementally maintained form of the any_headroom rule
  // (section 4.2.2).
  struct LoadView {
    const std::vector<WorkerLoad>* base = nullptr;
    const int* headroom = nullptr;  // [kNumMonotaskResources]
  };
  // Worker `w`'s load in `view`: its overlay bucket's load, else the base.
  const WorkerLoad& LoadAt(const LoadView& view, size_t w) const {
    const int32_t s = overlay_slot_[w];
    return s >= 0 ? overlay_buckets_[static_cast<size_t>(s)].load : (*view.base)[w];
  }

  // Full-rescan load snapshot: primes the cold load cache and is the
  // verify_hot_path reference for incremental refreshes.
  std::vector<WorkerLoad> SnapshotLoads() const;
  // The per-worker body of SnapshotLoads; `load` must be zero-initialized.
  void ComputeWorkerLoad(const Worker& worker, double ept, WorkerLoad* load) const;
  // Worker load-listener target: marks one cached worker load stale.
  void MarkLoadDirty(WorkerId w);
  // Brings the cached loads up to date — drains the dirty set, or primes a
  // cold cache with a full rescan — and rebuilds the bucketed scan order
  // when anything changed. Never called during a placement pass, so a pass
  // may hold the returned reference.
  const std::vector<WorkerLoad>& CurrentLoads();
  // Rebuilds scan_buckets_ from cached loads, grouping bit-identical loads
  // into one bucket each, and the per-dimension key orders over them. The
  // sorted worker order is kept across calls: `refreshed` lists the workers
  // whose loads changed since the last call (each carries its dirty mark),
  // and only those are re-sorted and merged back in; nullptr sorts all W.
  void RebuildScanOrder(std::vector<WorkerId>* refreshed);
  static void CountHeadroom(const std::vector<WorkerLoad>& loads,
                            int out[kNumMonotaskResources]);
  // Headroom signature: bits 0..2 set for d_r > 0, bit
  // kNumMonotaskResources for d_mem > 0 (shared by ScanBucket and
  // OverlayBucket).
  static uint32_t LoadMask(const WorkerLoad& load);
  // FNV-1a over the load's raw bytes; keys the overlay bucket index.
  static uint64_t HashLoad(const WorkerLoad& load);
  // Moves `w` (fresh, or already in an overlay bucket) to the overlay
  // bucket matching its load after applying one placement of `usage`; a
  // fresh `w` also leaves its base bucket's fresh members.
  void OverlayApply(WorkerId w, const TaskUsage& usage, double ept,
                    const std::vector<WorkerLoad>& base,
                    int headroom[kNumMonotaskResources]) const;
  // Clears the overlay (slots, buckets, index) and the base buckets' pass
  // state after a placement pass.
  void OverlayReset() const;
  // Evaluates Algorithm 1's StageScore for the ready tasks of (job, stage)
  // against `base` (mutating only a private overlay); returns the plan.
  StagePlan ScoreStage(const JobEntry& entry, StageId stage,
                       const std::vector<TaskId>& tasks,
                       const std::vector<WorkerLoad>& base,
                       const int base_headroom[kNumMonotaskResources], double ept) const;
  // Best worker for one task by Algorithm1Score; returns false if no worker
  // qualifies. `avoid` (from retry-exhaustion escalation) is a preference,
  // not a ban: its best qualifying score is tracked in the same pass and
  // used only when no other worker qualifies, so a re-placed task lands
  // elsewhere whenever possible without a second scan. Takes the bucketed
  // scan; verify_hot_path cross-checks it against the linear scan.
  bool BestWorker(const TaskUsage& usage, const LoadView& view, double ept,
                  WorkerId* out_worker, double* out_score,
                  WorkerId avoid = kInvalidId) const;
  // One BestWorker answer; `worker` is kInvalidId when nothing qualifies.
  struct Pick {
    WorkerId worker = kInvalidId;
    double score = -1.0;
  };
  // BestWorker's scan, and the linear reference scan that verify_hot_path
  // checks it against. Both add the scan entries they examine to `*scanned`
  // and return bit-identical picks.
  Pick BucketedScan(const TaskUsage& usage, const LoadView& view, double ept,
                    WorkerId avoid, int64_t* scanned) const;
  Pick LinearScan(const TaskUsage& usage, const LoadView& view, double ept,
                  WorkerId avoid, int64_t* scanned) const;
  // Applies one placement to a worker's load and maintains the headroom
  // counters across d_r > 0 -> == 0 transitions.
  static void ApplyToLoad(const TaskUsage& usage, double ept, WorkerLoad* load,
                          int headroom[kNumMonotaskResources]);

  Simulator* sim_;
  Cluster* cluster_;
  UrsaSchedulerConfig config_;
  Tracer* tracer_ = nullptr;

  std::vector<std::unique_ptr<JobEntry>> jobs_;  // Indexed by JobId.
  std::vector<JobRecord> records_;

  std::unique_ptr<PackingState> packing_;  // Non-null for packing placements.
  std::unique_ptr<FailureDetector> detector_;
  // Non-null when speculative execution is enabled; shared by all job
  // managers for budget enforcement and waste accounting.
  std::unique_ptr<SpeculationManager> spec_manager_;
  // Non-null when admission control is enabled.
  std::unique_ptr<AdmissionController> admission_;
  FaultCounters fault_stats_;
  // Last Worker::failure_epoch() handled per worker, so an explicit
  // FailWorker() call and a later detector declaration of the same crash
  // trigger recovery exactly once. Preserved across a scheduler crash as a
  // snapshot of the episodes handled before it: recovery reconciles every
  // worker whose epoch advanced past the snapshot — even one that failed
  // AND rejoined entirely within the downtime — plus, idempotently, every
  // still-failed worker.
  std::vector<int> handled_epoch_;

  // --- Control plane & crash-recovery (DESIGN.md section 14). ---
  // Always constructed; pass-through (zero events, zero RNG draws) unless
  // config_.ctrl.enabled.
  std::unique_ptr<ControlPlane> ctrl_;
  // Non-null when config_.ctrl.checkpoint_interval > 0.
  std::unique_ptr<Journal> journal_;
  // Scheduler control plane down (between InjectSchedulerCrash and
  // RecoverScheduler): ticks, failure handling and deliveries are suspended.
  bool down_ = false;
  double crash_time_ = 0.0;
  // Jobs submitted while down, resubmitted in arrival order at recovery.
  // Each carries the submit_time stamped when it parked, so the downtime it
  // waited counts toward its JCT; replaying_parked_ keeps SubmitJob from
  // re-stamping it at replay time.
  std::vector<std::unique_ptr<Job>> parked_submits_;
  bool replaying_parked_ = false;

  // --- Hot-path state (DESIGN.md section 12); sim-thread only. ---
  struct LoadCache {
    std::vector<WorkerLoad> loads;
    std::vector<uint8_t> dirty;  // Bitmap mirror of dirty_list.
    std::vector<WorkerId> dirty_list;
    bool primed = false;
  };
  LoadCache load_cache_;
  // BestWorker candidates: workers with bit-identical cached loads are
  // grouped into one bucket carrying the shared score-bound keys (valid for
  // the whole tick — loads only worsen between refreshes) and a headroom
  // signature mask for O(1) skipping of saturated and failed workers. The
  // common homogeneous case collapses thousands of workers into a handful
  // of buckets, each scored once per call.
  struct ScanBucket {
    double key[kNumResourceDims] = {};  // BoundKeys at build time.
    uint32_t mask = 0;  // Bits 0..2: d_r > 0 at build time; bit 3: d_mem > 0.
    std::vector<WorkerId> members;  // Ascending ids, identical loads.
  };
  std::vector<ScanBucket> scan_buckets_;
  // Per dimension, the buckets by key desc, index asc: the sorted lists of
  // the threshold walk. Keys are stored inline so the walk reads its
  // frontiers sequentially.
  struct KeyEntry {
    double key = 0.0;
    int32_t bucket = -1;
  };
  std::vector<KeyEntry> scan_by_key_[kNumResourceDims];
  std::vector<int32_t> scan_bucket_of_;  // Worker -> scan_buckets_ index.
  // All workers sorted by (raw load bytes, id): the concatenated bucket
  // members, kept so a rebuild merges the refreshed workers back in.
  std::vector<WorkerId> scan_order_;
  // Per base bucket state during a placement pass.
  struct BucketPass {
    uint64_t visited = 0;  // Stamp of the last BestWorker call to visit it.
    uint32_t fresh = 0;    // Members not moved to the overlay; 0 = dead.
    uint32_t cursor = 0;   // Index of the first member not known to be moved.
  };
  mutable std::vector<BucketPass> scan_pass_;
  mutable uint64_t scan_stamp_ = 0;  // Bumped by every bucketed call.
  // First job index of the next candidate gather: rotated after a truncated
  // tick so deferred jobs are not starved, 0 (submission order) otherwise.
  size_t placement_scan_start_ = 0;
  mutable SchedulerCounters counters_;
  // Placement overlay scratch: worker -> overlay_buckets_ index (-1 when the
  // worker is unmodified; sized once, one entry per worker), the
  // load-grouped buckets, the load-hash -> bucket index map, and the
  // touched-worker list for O(touched) reset. ScoreStage resets the overlay
  // after every candidate; the commit and speculation passes reset it when
  // they finish.
  mutable std::vector<int32_t> overlay_slot_;
  mutable std::vector<OverlayBucket> overlay_buckets_;
  mutable std::unordered_map<uint64_t, std::vector<int32_t>> overlay_index_;
  mutable std::vector<WorkerId> overlay_touched_;

  // Admission queue and tick/progress counters.
  std::vector<JobId> waiting_admission_;  // Submit order; SRJF re-sorts on use.
  double reserved_memory_ = 0.0;
  int total_jobs_ = 0;
  int total_restarts_ = 0;
  int finished_jobs_ = 0;
  int shed_jobs_ = 0;
  int active_jobs_ = 0;
  bool tick_scheduled_ = false;
  bool checkpoint_scheduled_ = false;
  bool placement_dirty_ = false;
  std::function<void()> job_finished_listener_;
};

}  // namespace ursa

#endif  // SRC_SCHEDULER_URSA_SCHEDULER_H_
