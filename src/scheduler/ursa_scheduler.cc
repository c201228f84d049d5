#include "src/scheduler/ursa_scheduler.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/wallclock.h"
#include "src/obs/trace.h"

namespace ursa {

namespace {

// EPT = scheduling_interval * kEptSlack, slightly larger than the interval
// to absorb scheduler/JM/worker communication delay (section 4.2.2).
constexpr double kEptSlack = 1.3;
static_assert(kEptSlack >= 1.0, "the EPT window must cover a scheduling interval");
// Weight W of the job-priority term added to stage placement scores ("how
// much EJF should be enforced", section 4.2.2). Large enough that job order
// dominates the O(1) load-match score once submissions are fractions of a
// second apart.
constexpr double kPriorityWeight = 25.0;
// Large bonus for plans that place a whole stage (stage-awareness).
constexpr double kStageBonus = 1e9;
// Modeled scheduler crash-recovery cost: a fixed restore latency plus replay
// time per journal record written since the last checkpoint.
constexpr double kRecoveryBaseCost = 0.01;
constexpr double kReplayCostPerRecord = 1e-5;

}  // namespace

UrsaScheduler::UrsaScheduler(Simulator* sim, Cluster* cluster,
                             const UrsaSchedulerConfig& config)
    : sim_(sim), cluster_(cluster), config_(config) {
  CHECK_GT(config_.scheduling_interval, 0.0);
  CHECK_GT(config_.max_scored_pairs_per_tick, 0u);
  for (int w = 0; w < cluster_->size(); ++w) {
    cluster_->worker(w).set_load_listener([this](WorkerId id) { MarkLoadDirty(id); });
  }
  if (config_.placement != PlacementAlgorithm::kAlgorithm1) {
    packing_ = std::make_unique<PackingState>(cluster, config_.placement);
  }
  handled_epoch_.resize(static_cast<size_t>(cluster_->size()), 0);
  overlay_slot_.assign(static_cast<size_t>(cluster_->size()), -1);
  // Message layer (DESIGN.md section 14): always constructed; pure
  // pass-through unless enabled, so the default costs no events or RNG.
  ctrl_ = std::make_unique<ControlPlane>(sim_, cluster_, config_.ctrl, &fault_stats_);
  ctrl_->set_down_check([this] { return down_; });
  ctrl_->set_completion_handler(
      [this](const ControlPlane::CompletionMsg& msg) { DeliverCompletion(msg); });
  if (config_.ctrl.enabled) {
    // A failing worker loses its delivered-dispatch dedup set with the rest
    // of its state, whether the failure is injected directly, via FailWorker
    // or while the scheduler itself is down.
    for (int w = 0; w < cluster_->size(); ++w) {
      cluster_->worker(w).set_fail_listener(
          [this](WorkerId id) { ctrl_->ForgetWorker(id); });
    }
  }
  if (config_.ctrl.checkpoint_interval > 0.0) {
    CHECK(config_.ctrl.enabled)
        << "journaling requires the control plane (checkpoints pace the "
           "message layer's crash-recovery model)";
    journal_ = std::make_unique<Journal>();
  }
  detector_ = std::make_unique<FailureDetector>(sim_, cluster_, config_.fault.detector);
  detector_->set_on_death(
      [this](WorkerId w, [[maybe_unused]] double silence) { HandleWorkerFailure(w); });
  detector_->set_on_rejoin([this](WorkerId w) { OnWorkerRejoined(w); });
  if (config_.ctrl.enabled) {
    // Heartbeats ride the lossy best-effort channel: lost or late beats are
    // exactly the silence the detector consumes.
    detector_->set_transport([this](WorkerId w, std::function<void()> deliver) {
      ctrl_->Heartbeat(w, std::move(deliver));
    });
  }
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  }
  if (config_.spec.enabled) {
    spec_manager_ = std::make_unique<SpeculationManager>(config_.spec, &fault_stats_);
    // Cancelled monotasks report their elapsed busy time (the wasted work of
    // the race's losing side) straight from the workers.
    for (int w = 0; w < cluster_->size(); ++w) {
      cluster_->worker(w).set_waste_sink(
          [this](ResourceType r, double bytes, double seconds) {
            spec_manager_->RecordWaste(r, bytes, seconds);
          });
    }
  }
}

UrsaScheduler::~UrsaScheduler() {
  // The cluster outlives this scheduler inside RunExperiment; detach the
  // load and fail listeners so a later worker mutation cannot call a dead
  // object.
  for (int w = 0; w < cluster_->size(); ++w) {
    cluster_->worker(w).set_load_listener(nullptr);
    cluster_->worker(w).set_fail_listener(nullptr);
  }
}

void UrsaScheduler::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  ctrl_->set_tracer(tracer);
}

void UrsaScheduler::SubmitJob(std::unique_ptr<Job> job) {
  if (down_) {
    // The scheduler front-end is down: the client's submission parks and is
    // replayed, in arrival order, the moment the scheduler recovers (before
    // any post-recovery arrival, so job ids stay dense). The JCT clock
    // starts now, at client arrival — the downtime a parked job waits is
    // queueing delay the crash caused and must count against it.
    job->submit_time = sim_->Now();
    parked_submits_.push_back(std::move(job));
    return;
  }
  CHECK_EQ(job->id, static_cast<JobId>(jobs_.size()))
      << "jobs must be submitted with dense sequential ids";
  if (!replaying_parked_) {
    job->submit_time = sim_->Now();
  }
  JobRecord record;
  record.id = job->id;
  record.name = job->spec.name;
  record.klass = job->spec.klass;
  record.tenant = job->spec.tenant;
  record.tier = job->spec.priority_tier;
  record.slo = job->spec.slo_seconds;
  record.submit_time = job->submit_time;
  records_.push_back(std::move(record));

  auto entry = std::make_unique<JobEntry>();
  entry->job = std::move(job);
  const JobId id = entry->job->id;
  jobs_.push_back(std::move(entry));
  ++total_jobs_;
  if (admission_ != nullptr) {
    const Job& submitted = *jobs_[static_cast<size_t>(id)]->job;
    AdmissionController::JobInfo info;
    info.id = id;
    info.tier = submitted.spec.priority_tier;
    info.expected_seconds = EstimateExpectedSeconds(submitted);
    info.slo = submitted.spec.slo_seconds;
    const AdmissionController::Decision decision = admission_->OnSubmit(info, sim_->Now());
    if (decision.evicted != kInvalidId) {
      ShedJob(decision.evicted);
    }
    if (!decision.accepted) {
      ShedJob(id);
      return;
    }
  }
  waiting_admission_.push_back(id);
  TryAdmitJobs();
  EnsureTickScheduled();
}

void UrsaScheduler::ShedJob(JobId id) {
  JobEntry& entry = *jobs_[static_cast<size_t>(id)];
  CHECK(!entry.admitted && !entry.finished && !entry.shed)
      << "only unadmitted jobs can be shed";
  entry.shed = true;
  const double now = sim_->Now();
  JobRecord& record = records_[static_cast<size_t>(id)];
  record.shed = true;
  record.shed_time = now;
  waiting_admission_.erase(
      std::remove(waiting_admission_.begin(), waiting_admission_.end(), id),
      waiting_admission_.end());
  ++shed_jobs_;
  if (tracer_ != nullptr) {
    const double slo = entry.job->spec.slo_seconds > 0.0
                           ? entry.job->spec.slo_seconds
                           : config_.admission.default_slo;
    tracer_->AdmissionEvent(now, TraceEventKind::kShed, id, entry.job->spec.priority_tier,
                            EstimateExpectedSeconds(*entry.job) / slo, 0.0);
  }
}

double UrsaScheduler::EstimateExpectedSeconds(const Job& job) const {
  const auto work = job.plan.ExpectedWorkByResource();
  double rate[kNumMonotaskResources] = {0.0, 0.0, 0.0};
  for (int w = 0; w < cluster_->size(); ++w) {
    const Worker& worker = cluster_->worker(w);
    if (worker.failed()) {
      continue;
    }
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      rate[r] += worker.ProcessingRate(static_cast<ResourceType>(r));
    }
  }
  double worst = 0.0;
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    if (work[static_cast<size_t>(r)] > 0.0) {
      worst = std::max(worst, work[static_cast<size_t>(r)] / std::max(rate[r], 1.0));
    }
  }
  return worst;
}

double UrsaScheduler::AvgHeadroom() {
  const std::vector<WorkerLoad>& loads = CurrentLoads();
  double sum = 0.0;
  int live = 0;
  for (int w = 0; w < cluster_->size(); ++w) {
    if (cluster_->worker(w).failed()) {
      continue;
    }
    const WorkerLoad& load = loads[static_cast<size_t>(w)];
    double headroom = 0.0;
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      headroom += load.d[r];
    }
    sum += headroom / kNumMonotaskResources;
    ++live;
  }
  return live > 0 ? sum / static_cast<double>(live) : 0.0;
}

const JobManager* UrsaScheduler::job_manager(JobId id) const {
  const JobEntry& entry = *jobs_[static_cast<size_t>(id)];
  return entry.jm.get();
}

int UrsaScheduler::FailWorker(WorkerId worker_id) {
  Worker& worker = cluster_->worker(worker_id);
  if (worker.failed()) {
    return 0;  // Idempotent: this failure episode is already in progress.
  }
  worker.Fail();
  return HandleWorkerFailure(worker_id);
}

int UrsaScheduler::HandleWorkerFailure(WorkerId worker_id) {
  if (down_) {
    // A dead scheduler handles nothing. handled_epoch_ is deliberately not
    // stamped: recovery reconciles every failure episode it missed.
    return 0;
  }
  Worker& worker = cluster_->worker(worker_id);
  if (!worker.failed()) {
    // The detector declared a worker that is actually alive (e.g. degraded
    // but heartbeating slowly in a future model); nothing to recover.
    return 0;
  }
  // An explicit FailWorker() call and a later heartbeat-timeout declaration
  // of the same crash must recover exactly once.
  if (handled_epoch_[static_cast<size_t>(worker_id)] == worker.failure_epoch()) {
    return 0;
  }
  return ReconcileWorkerFailure(worker_id);
}

int UrsaScheduler::ReconcileWorkerFailure(WorkerId worker_id) {
  // Failure-episode reconciliation, shared by live failure handling and the
  // post-crash recovery pass. Unlike HandleWorkerFailure it does not require
  // the worker to still be failed(): a worker that crashed AND rejoined
  // entirely within scheduler downtime is alive again, but its queued and
  // in-flight monotasks and its metadata outputs died with the old process
  // and must be reconciled all the same.
  Worker& worker = cluster_->worker(worker_id);
  handled_epoch_[static_cast<size_t>(worker_id)] = worker.failure_epoch();
  const double now = sim_->Now();
  fault_stats_.RecordDetection(std::max(0.0, now - worker.failed_since()));
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(now, TraceEventKind::kDetection, worker_id,
                         std::max(0.0, now - worker.failed_since()));
  }
  // Drop the worker's metadata before recovery so the lineage pass sees
  // exactly which outputs are gone. Safe: any task that could read a dropped
  // partition is reset by the lineage fixpoint and only becomes ready again
  // after its producers have re-Put their outputs.
  cluster_->metadata().DropWorker(worker_id);

  int affected = 0;
  for (auto& entry : jobs_) {
    if (!entry->admitted || entry->finished) {
      continue;
    }
    // Tear down speculative copies on the dead worker (and mark primaries
    // lost there as handed over to their surviving copy) before any recovery
    // decision; RecoverFromWorkerFailure repeats this idempotently.
    entry->jm->HandleWorkerFailureForSpeculation(worker_id);
    if (config_.fault.enable_lineage_recovery) {
      JobManager::RecoveryResult r = entry->jm->RecoverFromWorkerFailure(worker_id);
      if (r.tasks_reset > 0) {
        fault_stats_.tasks_reset += r.tasks_reset;
        fault_stats_.full_restart_equivalent_tasks += r.tasks_started_before;
        ++affected;
      }
    } else if (entry->jm->DependsOnWorker(worker_id)) {
      FullRestart(*entry);
      ++affected;
    }
  }
  EnsureTickScheduled();
  return affected;
}

void UrsaScheduler::OnWorkerRejoined(WorkerId worker_id) {
  ++fault_stats_.rejoins;
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kRejoin, worker_id);
  }
  // The worker re-registered empty; the next tick may place tasks on it.
  placement_dirty_ = true;
  EnsureTickScheduled();
}

void UrsaScheduler::ConfigureJobManager(JobEntry& entry) {
  entry.jm = std::make_unique<JobManager>(sim_, cluster_, entry.job.get(), this, ctrl_.get());
  entry.jm->set_tracer(tracer_);
  entry.jm->set_journal(journal_.get());
  entry.jm->set_incarnation(entry.incarnation);
  entry.jm->set_use_intra_ordering(config_.enable_monotask_ordering);
  // EJF queue priority: admission (submission) order. SRJF ranks are
  // refreshed every tick.
  entry.jm->set_priority(config_.enable_monotask_ordering ? entry.job->submit_time : 0.0);
  // Graphene: the per-stage critical-path analysis is a pure function of the
  // plan, so one computation per job survives restarts.
  if (config_.policy == OrderingPolicy::kGraphene && entry.crit.work.empty()) {
    entry.crit = AnalyzeStages(entry.job->plan, kGrapheneThreshold);
  }
  entry.jm->ConfigureFaultPolicy(config_.fault.max_monotask_attempts, &fault_stats_);
  if (spec_manager_ != nullptr) {
    entry.jm->ConfigureSpeculation(spec_manager_.get());
  }
}

void UrsaScheduler::StartJobManager(JobEntry& entry) {
  ConfigureJobManager(entry);
  if (journal_ != nullptr) {
    journal_->Append({JournalKind::kStartJm, entry.job->id, kInvalidId, kInvalidId,
                      entry.incarnation, 0.0, 0.0, sim_->Now()});
  }
  entry.jm->Start();
}

void UrsaScheduler::RestoreJobManager(JobEntry& entry, const JobImage& image) {
  CHECK_EQ(image.incarnation, entry.incarnation)
      << "journal image replays a different incarnation than the entry";
  ConfigureJobManager(entry);
  entry.jm->RestoreFromImage(image);
}

void UrsaScheduler::FullRestart(JobEntry& entry) {
  // Restart from the input checkpoint with a fresh job manager; the
  // admission reservation carries over. The aborted manager is freed here:
  // reports of its still-running monotasks are routed by job identity and
  // fenced by the incarnation bump, and its retry timers by its liveness
  // token. No frame of it is on the stack: restarts run from failure
  // handling, which no job-manager callback reaches.
  entry.jm->Abort();
  entry.jm.reset();
  ++entry.incarnation;
  StartJobManager(entry);
  ++total_restarts_;
  ++fault_stats_.full_restarts;
}

void UrsaScheduler::DeliverCompletion(const ControlPlane::CompletionMsg& msg) {
  JobEntry& entry = *jobs_[static_cast<size_t>(msg.key.job)];
  JobManager* jm = entry.jm.get();
  if (jm == nullptr || entry.finished || jm->incarnation() != msg.key.incarnation) {
    // The execution this report describes belongs to a dead incarnation
    // (full restart or journal-less crash recovery) or a finished job.
    ++fault_stats_.msgs_fenced;
    if (tracer_ != nullptr) {
      tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgFenced, msg.worker,
                           static_cast<double>(msg.key.channel));
    }
    return;
  }
  jm->OnReport(msg);
}

void UrsaScheduler::InjectSchedulerCrash(double downtime) {
  CHECK(config_.ctrl.enabled)
      << "scheduler crash injection requires the control-plane message layer "
         "(config.ctrl.enabled)";
  CHECK_GE(downtime, 0.0);
  if (down_) {
    return;  // Already crashed; the pending recovery owns the control plane.
  }
  const double now = sim_->Now();
  down_ = true;
  crash_time_ = now;
  ++fault_stats_.scheduler_crashes;
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(now, TraceEventKind::kSchedCrash, kInvalidId);
  }
  // Epoch fencing: every dispatch minted by the dead incarnation is
  // discarded at delivery (or at its retransmit timer), so a stale message
  // can never double-charge a worker or resurrect a cancelled copy.
  ctrl_->BumpEpoch();
  // handled_epoch_ is left as a snapshot of the failure episodes handled
  // before the crash: recovery reconciles every worker whose failure epoch
  // advanced past it (including workers that crashed AND rejoined entirely
  // within the downtime) plus, idempotently, every still-failed worker.
  const bool journaled = journal_ != nullptr;
  for (auto& entry : jobs_) {
    if (!entry->admitted || entry->finished || entry->jm == nullptr) {
      continue;
    }
    // Speculative copies are forfeited either way: their cancel tokens and
    // buffered outputs are live scheduler state and die with the job manager.
    entry->jm->ForfeitSpeculation();
    if (journaled) {
      // Wipe the live state; the journal owns the truth now. Orphaned
      // monotasks keep running on their workers — their memory charges and
      // metadata Puts are worker-side state — and re-attach after restore.
      entry->jm.reset();
    } else {
      // No journal: the job's progress is unrecoverable. Degrade to a full
      // restart from the input checkpoint at recovery.
      entry->jm->Abort();
      entry->jm.reset();
    }
  }
  double delay = downtime + kRecoveryBaseCost;
  if (journaled) {
    // Replay cost is charged only for the journal suffix written since the
    // last checkpoint; the checkpoint image covers the prefix.
    delay += kReplayCostPerRecord * static_cast<double>(journal_->suffix_length());
    fault_stats_.journal_records = static_cast<int64_t>(journal_->appended());
  }
  sim_->Schedule(delay, [this] { RecoverScheduler(); });
}

void UrsaScheduler::RecoverScheduler() {
  const double now = sim_->Now();
  CHECK(down_);
  down_ = false;
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(now, TraceEventKind::kSchedRecover, kInvalidId,
                         now - crash_time_);
  }
  const bool journaled = journal_ != nullptr;
  if (journaled) {
    // Restore per-job images — the checkpointed prefix plus a replay of the
    // post-checkpoint suffix (the part charged as recovery latency) — and
    // rebuild every live job's manager from its image.
    std::map<JobId, JobImage> images = journal_->Restore(
        [this](JobId job) -> const ExecutionPlan& {
          return jobs_[static_cast<size_t>(job)]->job->plan;
        });
    for (auto& entry : jobs_) {
      if (!entry->admitted || entry->finished) {
        continue;
      }
      auto it = images.find(entry->job->id);
      CHECK(it != images.end()) << "admitted job missing from the journal";
      RestoreJobManager(*entry, it->second);
    }
  } else {
    for (auto& entry : jobs_) {
      if (!entry->admitted || entry->finished) {
        continue;
      }
      ++entry->incarnation;
      StartJobManager(*entry);
      ++total_restarts_;
      ++fault_stats_.full_restarts;
    }
  }
  // The detector's liveness state is scheduler-side: re-seed it so silence
  // is measured from recovery, then reconcile every failure episode this
  // scheduler cannot prove it handled. Any worker whose failure epoch
  // advanced past the crash-time snapshot lost queued/in-flight monotasks
  // and metadata outputs — even if it already rejoined and is alive again —
  // and every still-failed worker is re-handled idempotently, which also
  // resets restored placements stranded on dead workers (including
  // pre-crash primary_lost tasks whose forfeited copy left them without a
  // runner).
  detector_->Reset(now);
  for (int w = 0; w < cluster_->size(); ++w) {
    const Worker& worker = cluster_->worker(w);
    if (worker.failed() ||
        worker.failure_epoch() != handled_epoch_[static_cast<size_t>(w)]) {
      ReconcileWorkerFailure(w);
    }
  }
  // Resync: re-send every dispatch of a restored placement that no worker
  // acked (the send died with the old epoch, or a pending retry-backoff
  // event was lost in the crash). Acked dispatches are skipped — their
  // orphans are still queued or running and will re-attach.
  int redispatched = 0;
  if (journaled) {
    for (auto& entry : jobs_) {
      if (!entry->admitted || entry->finished || entry->jm == nullptr) {
        continue;
      }
      redispatched += entry->jm->ResyncDispatches();
    }
  }
  fault_stats_.redispatched_monotasks += redispatched;
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(now, TraceEventKind::kResync, kInvalidId,
                         static_cast<double>(redispatched));
  }
  ++fault_stats_.scheduler_recoveries;
  fault_stats_.scheduler_recovery_latencies.push_back(now - crash_time_);
  // Submissions that arrived while down replay in arrival order, before any
  // post-recovery arrival can interleave, so job ids stay dense. They keep
  // the submit_time stamped when they parked, so downtime queueing counts
  // toward their JCT.
  std::vector<std::unique_ptr<Job>> parked;
  parked.swap(parked_submits_);
  replaying_parked_ = true;
  for (auto& job : parked) {
    SubmitJob(std::move(job));
  }
  replaying_parked_ = false;
  placement_dirty_ = true;
  TryAdmitJobs();
  EnsureTickScheduled();
}

void UrsaScheduler::EnsureCheckpointScheduled() {
  if (journal_ == nullptr) {
    return;
  }
  if (checkpoint_scheduled_) {
    return;
  }
  checkpoint_scheduled_ = true;
  sim_->Schedule(config_.ctrl.checkpoint_interval, [this] { CheckpointTick(); });
}

void UrsaScheduler::CheckpointTick() {
  checkpoint_scheduled_ = false;
  if (down_) {
    return;  // Recovery re-arms the chain through EnsureTickScheduled.
  }
  // Folding the suffix into the per-job images truncates the journal:
  // memory and replay work track live state, not the full decision history.
  journal_->Checkpoint(sim_->Now(), [this](JobId job) -> const ExecutionPlan& {
    return jobs_[static_cast<size_t>(job)]->job->plan;
  });
  ++fault_stats_.checkpoints;
  fault_stats_.journal_records = static_cast<int64_t>(journal_->appended());
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kCheckpoint, kInvalidId,
                         static_cast<double>(journal_->appended()));
  }
  if (active_jobs_ > 0 || !waiting_admission_.empty()) {
    EnsureCheckpointScheduled();
  }
}

void UrsaScheduler::OnTaskReady([[maybe_unused]] JobId job, [[maybe_unused]] TaskId task) {
  placement_dirty_ = true;
  EnsureTickScheduled();
}

void UrsaScheduler::OnTaskCompleted(JobId job, TaskId task) {
  if (packing_ != nullptr) {
    packing_->Release(job, task);
  }
}

void UrsaScheduler::OnJobFinished(JobId job_id) {
  JobEntry& entry = *jobs_[static_cast<size_t>(job_id)];
  CHECK(entry.admitted && !entry.finished);
  entry.finished = true;
  if (journal_ != nullptr) {
    journal_->Append(
        {JournalKind::kJobFinish, job_id, kInvalidId, kInvalidId, 0, 0.0, 0.0, sim_->Now()});
  }
  // The job's wire identities are dead; drop the per-worker dedup state.
  ctrl_->ForgetJob(job_id);
  if (admission_ != nullptr) {
    admission_->OnJobFinished(job_id);
  }
  reserved_memory_ -= entry.job->spec.declared_memory_bytes;
  reserved_memory_ = std::max(reserved_memory_, 0.0);
  --active_jobs_;
  ++finished_jobs_;
  JobRecord& record = records_[static_cast<size_t>(job_id)];
  record.finish_time = sim_->Now();
  record.cpu_seconds = entry.jm->cpu_seconds_used();
  TryAdmitJobs();
  if (job_finished_listener_) {
    job_finished_listener_();
  }
}

void UrsaScheduler::EnsureTickScheduled() {
  if (tick_scheduled_) {
    return;
  }
  tick_scheduled_ = true;
  sim_->Schedule(config_.scheduling_interval, [this] { Tick(); });
  EnsureCheckpointScheduled();
  // (Re)start heartbeats and sweeps; both stop when the cluster goes idle so
  // the event queue can drain.
  detector_->Activate([this] { return active_jobs_ > 0 || !waiting_admission_.empty(); });
}

void UrsaScheduler::Tick() {
  tick_scheduled_ = false;
  if (down_) {
    return;  // Crashed: recovery re-arms the tick chain.
  }
  ++counters_.ticks;
  const WallTimer wall;
  if (admission_ != nullptr &&
      admission_->UpdateBackpressure(sim_->Now(), AvgHeadroom())) {
    if (tracer_ != nullptr) {
      tracer_->AdmissionEvent(sim_->Now(), TraceEventKind::kBackpressure, kInvalidId, 0,
                              static_cast<double>(static_cast<int>(admission_->level())),
                              admission_->throttle_factor());
    }
  }
  TryAdmitJobs();
  RefreshPriorities();
  const PlacementStats stats = RunPlacement();
  // Graceful degradation: under kDegrade backpressure the speculation pass is
  // suspended — duplicate copies are pure overhead when the cluster is
  // saturated with primary work.
  if (admission_ == nullptr || admission_->level() < BackpressureLevel::kDegrade) {
    RunSpeculation();
  }
  if (tracer_ != nullptr) {
    tracer_->SchedulerTick(sim_->Now(), stats.candidates, stats.placed,
                           wall.ElapsedMicros());
  }
  if (active_jobs_ > 0 || !waiting_admission_.empty()) {
    EnsureTickScheduled();
  }
}

void UrsaScheduler::TryAdmitJobs() {
  if (down_) {
    return;
  }
  if (waiting_admission_.empty()) {
    return;
  }
  // Admission order follows the job-ordering policy when JO is enabled,
  // otherwise plain submission order. Graphene defers to SRJF here —
  // its DAG-awareness acts at stage-placement granularity.
  if (config_.enable_job_ordering &&
      EffectiveJobPolicy(config_.policy) == OrderingPolicy::kSrjf) {
    // Rank by expected remaining work against the total load of admitted +
    // waiting jobs.
    std::array<double, kNumMonotaskResources> total_load = {0.0, 0.0, 0.0};
    for (const auto& entry : jobs_) {
      if (entry->finished || entry->shed) {
        continue;  // Shed jobs never run; they must not contribute load.
      }
      const auto work = entry->admitted ? entry->jm->remaining_work()
                                        : entry->job->plan.ExpectedWorkByResource();
      for (size_t r = 0; r < work.size(); ++r) {
        total_load[r] += work[r];
      }
    }
    std::stable_sort(waiting_admission_.begin(), waiting_admission_.end(),
                     [&](JobId a, JobId b) {
                       const auto ra = jobs_[static_cast<size_t>(a)]
                                           ->job->plan.ExpectedWorkByResource();
                       const auto rb = jobs_[static_cast<size_t>(b)]
                                           ->job->plan.ExpectedWorkByResource();
                       return SrjfRank(ra, total_load) < SrjfRank(rb, total_load);
                     });
  } else {
    // Submission order needs no sort: SubmitJob is the only insert and
    // stamps are non-decreasing in push order (fresh jobs get Now(); parked
    // replays keep their parking stamps, later than anything queued before
    // the crash).
    DCHECK(std::is_sorted(waiting_admission_.begin(), waiting_admission_.end(),
                          [&](JobId a, JobId b) {
                            return jobs_[static_cast<size_t>(a)]->job->submit_time <
                                   jobs_[static_cast<size_t>(b)]->job->submit_time;
                          }));
  }
  const double memory_budget = cluster_->total_memory();
  // Strict head-of-line admission prevents starvation of large jobs; the
  // utilization gate (admission control) is a second head-of-line condition,
  // while tier deferral under kDegrade backpressure skips an entry so
  // higher-priority waiters behind it can still be considered. Starting a
  // job re-enters the scheduler (ready-task callbacks, possibly a nested
  // TryAdmitJobs), so each round re-reads the queue at `cursor`.
  size_t cursor = 0;
  while (cursor < waiting_admission_.size()) {
    const double now = sim_->Now();
    const JobId id = waiting_admission_[cursor];
    JobEntry& entry = *jobs_[static_cast<size_t>(id)];
    if (admission_ != nullptr) {
      // Deferring this job only helps if a higher-priority (numerically
      // smaller tier) job is actually waiting to take its place; otherwise
      // deferral would idle the cluster (or, on a queue of only low-tier
      // jobs, deadlock it), so it is suppressed.
      bool has_competing_work = false;
      for (size_t i = 0; !has_competing_work && i < waiting_admission_.size(); ++i) {
        has_competing_work =
            i != cursor &&
            jobs_[static_cast<size_t>(waiting_admission_[i])]->job->spec.priority_tier <
                entry.job->spec.priority_tier;
      }
      const AdmissionController::Gate gate =
          admission_->GateActivation(id, now, has_competing_work);
      if (gate == AdmissionController::Gate::kDeferTier) {
        ++cursor;
        if (tracer_ != nullptr) {
          tracer_->AdmissionEvent(now, TraceEventKind::kDefer, id,
                                  entry.job->spec.priority_tier,
                                  now - entry.job->submit_time, 0.0);
        }
        continue;
      }
      if (gate == AdmissionController::Gate::kBlockedUtilization) {
        break;  // Head-of-line: the utilization bound must free up first.
      }
    }
    if (reserved_memory_ + entry.job->spec.declared_memory_bytes > memory_budget) {
      break;
    }
    waiting_admission_.erase(waiting_admission_.begin() + static_cast<ptrdiff_t>(cursor));
    reserved_memory_ += entry.job->spec.declared_memory_bytes;
    entry.admitted = true;
    ++active_jobs_;
    records_[static_cast<size_t>(id)].admit_time = now;
    if (admission_ != nullptr) {
      admission_->OnActivated(id, now);
      if (tracer_ != nullptr) {
        tracer_->AdmissionEvent(now, TraceEventKind::kAdmit, id, entry.job->spec.priority_tier,
                                now - entry.job->submit_time,
                                static_cast<double>(admission_->counters().pending_now));
      }
    }
    if (journal_ != nullptr) {
      journal_->Append({JournalKind::kAdmit, id, kInvalidId, kInvalidId, 0,
                        entry.job->spec.declared_memory_bytes, 0.0, now});
    }
    StartJobManager(entry);
  }
}

void UrsaScheduler::RefreshPriorities() {
  if (EffectiveJobPolicy(config_.policy) != OrderingPolicy::kSrjf) {
    return;
  }
  std::array<double, kNumMonotaskResources> load = {0.0, 0.0, 0.0};
  for (const auto& entry : jobs_) {
    if (entry->admitted && !entry->finished) {
      const auto& r = entry->jm->remaining_work();
      for (size_t i = 0; i < r.size(); ++i) {
        load[i] += r[i];
      }
    }
  }
  bool changed = false;
  for (const auto& entry : jobs_) {
    if (!entry->admitted || entry->finished) {
      continue;
    }
    const double rank = SrjfRank(entry->jm->remaining_work(), load);
    if (std::abs(rank - entry->srjf_rank) > 1e-6) {
      changed = true;
    }
    entry->srjf_rank = rank;
    if (config_.enable_monotask_ordering) {
      entry->jm->set_priority(rank);
    }
  }
  if (changed && config_.enable_monotask_ordering) {
    auto priority_of = [this](JobId id) {
      return jobs_[static_cast<size_t>(id)]->srjf_rank;
    };
    for (int w = 0; w < cluster_->size(); ++w) {
      cluster_->worker(w).Reprioritize(priority_of);
    }
  }
}

void UrsaScheduler::ComputeWorkerLoad(const Worker& worker, double ept,
                                      WorkerLoad* out) const {
  WorkerLoad& load = *out;
  if (worker.failed()) {
    load.memory_capacity = worker.memory_capacity();
    return;  // All-zero headroom: never selected.
  }
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    const auto type = static_cast<ResourceType>(r);
    const double apt = worker.ApproxProcessingTime(type);
    load.apt[r] = apt;
    load.d[r] = std::max(0.0, (ept - apt) / ept);
    load.rate[r] = worker.ProcessingRate(type);
  }
  load.free_memory = worker.free_memory();
  load.memory_capacity = worker.memory_capacity();
  load.d[static_cast<size_t>(ResourceDim::kMemory)] =
      worker.free_memory() / worker.memory_capacity();
}

std::vector<WorkerLoad> UrsaScheduler::SnapshotLoads() const {
  const double ept = config_.scheduling_interval * kEptSlack;
  std::vector<WorkerLoad> loads(static_cast<size_t>(cluster_->size()));
  for (int w = 0; w < cluster_->size(); ++w) {
    ComputeWorkerLoad(cluster_->worker(w), ept, &loads[static_cast<size_t>(w)]);
  }
  return loads;
}

void UrsaScheduler::MarkLoadDirty(WorkerId w) {
  if (!load_cache_.primed || load_cache_.dirty[static_cast<size_t>(w)] != 0) {
    return;  // Unprimed caches are rebuilt in full; duplicates are dropped.
  }
  load_cache_.dirty[static_cast<size_t>(w)] = 1;
  load_cache_.dirty_list.push_back(w);
}

const std::vector<WorkerLoad>& UrsaScheduler::CurrentLoads() {
  // A placement pass reads the cached loads by reference.
  CHECK(overlay_touched_.empty()) << "loads refreshed during a placement pass";
  const double ept = config_.scheduling_interval * kEptSlack;
  if (!load_cache_.primed) {
    load_cache_.loads = SnapshotLoads();
    load_cache_.dirty.assign(load_cache_.loads.size(), 0);
    load_cache_.dirty_list.clear();
    load_cache_.primed = true;
    RebuildScanOrder(nullptr);
  } else if (!load_cache_.dirty_list.empty()) {
    for (const WorkerId w : load_cache_.dirty_list) {
      WorkerLoad load;
      ComputeWorkerLoad(cluster_->worker(w), ept, &load);
      load_cache_.loads[static_cast<size_t>(w)] = load;
      ++counters_.load_refreshes;
    }
    if (config_.verify_hot_path) {
      // Debug cross-check: the incremental snapshot must be bit-identical to
      // a from-scratch rebuild; a divergence means a worker mutation path is
      // missing its MarkLoadChanged() notification.
      const std::vector<WorkerLoad> reference = SnapshotLoads();
      CHECK_EQ(reference.size(), load_cache_.loads.size());
      for (size_t w = 0; w < reference.size(); ++w) {
        const WorkerLoad& a = reference[w];
        const WorkerLoad& b = load_cache_.loads[w];
        bool same =
            a.free_memory == b.free_memory && a.memory_capacity == b.memory_capacity;
        for (int r = 0; r < kNumResourceDims; ++r) {
          same = same && a.d[r] == b.d[r];
        }
        for (int r = 0; r < kNumMonotaskResources; ++r) {
          same = same && a.apt[r] == b.apt[r] && a.rate[r] == b.rate[r];
        }
        CHECK(same) << "incremental load for worker " << w
                    << " diverged from the full rescan (missing dirty mark?)";
      }
    }
    // The dirty marks tell RebuildScanOrder which workers moved.
    RebuildScanOrder(&load_cache_.dirty_list);
    for (const WorkerId w : load_cache_.dirty_list) {
      load_cache_.dirty[static_cast<size_t>(w)] = 0;
    }
    load_cache_.dirty_list.clear();
  }
  return load_cache_.loads;
}

uint32_t UrsaScheduler::LoadMask(const WorkerLoad& load) {
  uint32_t mask = 0;
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    if (load.d[r] > 0.0) {
      mask |= 1u << r;
    }
  }
  if (load.d[static_cast<size_t>(ResourceDim::kMemory)] > 0.0) {
    mask |= 1u << kNumMonotaskResources;
  }
  return mask;
}

uint64_t UrsaScheduler::HashLoad(const WorkerLoad& load) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(&load);
  uint64_t h = 14695981039346656037ull;  // FNV-1a.
  for (size_t i = 0; i < sizeof(WorkerLoad); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

void UrsaScheduler::OverlayApply(WorkerId w, const TaskUsage& usage, double ept,
                                 const std::vector<WorkerLoad>& base,
                                 int headroom[kNumMonotaskResources]) const {
  WorkerLoad load;
  const int32_t old_slot = overlay_slot_[static_cast<size_t>(w)];
  if (old_slot >= 0) {
    OverlayBucket& old_bucket = overlay_buckets_[static_cast<size_t>(old_slot)];
    load = old_bucket.load;
    old_bucket.members.erase(
        std::lower_bound(old_bucket.members.begin(), old_bucket.members.end(), w));
  } else {
    load = base[static_cast<size_t>(w)];
    overlay_touched_.push_back(w);
    --scan_pass_[static_cast<size_t>(scan_bucket_of_[static_cast<size_t>(w)])].fresh;
  }
  ApplyToLoad(usage, ept, &load, headroom);
  // Find or create the bucket holding this exact load. Emptied buckets stay
  // in the index as tombstones and get reused when the load recurs.
  int32_t target = -1;
  std::vector<int32_t>& hits = overlay_index_[HashLoad(load)];
  for (const int32_t idx : hits) {
    if (std::memcmp(&overlay_buckets_[static_cast<size_t>(idx)].load, &load,
                    sizeof(WorkerLoad)) == 0) {
      target = idx;
      break;
    }
  }
  if (target < 0) {
    target = static_cast<int32_t>(overlay_buckets_.size());
    OverlayBucket bucket;
    bucket.load = load;
    BoundKeys(load, bucket.key);
    bucket.mask = LoadMask(load);
    overlay_buckets_.push_back(std::move(bucket));
    hits.push_back(target);
  }
  OverlayBucket& bucket = overlay_buckets_[static_cast<size_t>(target)];
  bucket.members.insert(
      std::lower_bound(bucket.members.begin(), bucket.members.end(), w), w);
  overlay_slot_[static_cast<size_t>(w)] = target;
}

void UrsaScheduler::OverlayReset() const {
  for (const WorkerId w : overlay_touched_) {
    overlay_slot_[static_cast<size_t>(w)] = -1;
    const size_t b = static_cast<size_t>(scan_bucket_of_[static_cast<size_t>(w)]);
    scan_pass_[b].fresh = static_cast<uint32_t>(scan_buckets_[b].members.size());
    scan_pass_[b].cursor = 0;
  }
  overlay_touched_.clear();
  overlay_buckets_.clear();
  overlay_index_.clear();
}

void UrsaScheduler::RebuildScanOrder(std::vector<WorkerId>* refreshed) {
  // The per-bucket pass state below is indexed by the buckets being
  // replaced; loads are only refreshed between placement passes.
  CHECK(overlay_touched_.empty()) << "scan order rebuilt during a placement pass";
  const std::vector<WorkerLoad>& loads = load_cache_.loads;
  // Group workers with bit-identical loads: sort by the raw load bytes
  // (WorkerLoad is all doubles, so memcmp is a total order with no padding
  // hazards), then cut runs of equal loads into buckets. The index
  // tie-break keeps each bucket's member list ascending.
  const auto before = [&loads](WorkerId a, WorkerId b) {
    const int c = std::memcmp(&loads[static_cast<size_t>(a)],
                              &loads[static_cast<size_t>(b)], sizeof(WorkerLoad));
    return c != 0 ? c < 0 : a < b;
  };
  const auto sort_all = [&loads, &before] {
    std::vector<WorkerId> all(loads.size());
    std::iota(all.begin(), all.end(), 0);
    std::sort(all.begin(), all.end(), before);
    return all;
  };
  std::vector<WorkerId>& order = scan_order_;
  if (refreshed == nullptr) {
    order = sort_all();
  } else {
    // `before` is a strict total order, so the sorted order is unique: the
    // workers whose loads did not move keep their relative order, and
    // merging the re-sorted movers back in yields exactly the full sort.
    order.erase(std::remove_if(order.begin(), order.end(),
                               [this](WorkerId w) {
                                 return load_cache_.dirty[static_cast<size_t>(w)] != 0;
                               }),
                order.end());
    std::sort(refreshed->begin(), refreshed->end(), before);
    std::vector<WorkerId> merged(order.size() + refreshed->size());
    std::merge(order.begin(), order.end(), refreshed->begin(), refreshed->end(),
               merged.begin(), before);
    order.swap(merged);
    if (config_.verify_hot_path) {
      CHECK(sort_all() == order) << "merged scan order diverged from the full sort";
    }
  }
  scan_buckets_.clear();
  scan_bucket_of_.resize(loads.size());
  for (size_t i = 0; i < order.size();) {
    const WorkerLoad& load = loads[static_cast<size_t>(order[i])];
    const int32_t index = static_cast<int32_t>(scan_buckets_.size());
    ScanBucket bucket;
    // The keys bound every fresh member for the whole tick: every d only
    // decreases as placements are applied, and modified workers leave the
    // bucket's fresh set via the overlay.
    BoundKeys(load, bucket.key);
    bucket.mask = LoadMask(load);
    size_t j = i;
    while (j < order.size() &&
           std::memcmp(&loads[static_cast<size_t>(order[j])], &load,
                       sizeof(WorkerLoad)) == 0) {
      bucket.members.push_back(order[j]);
      scan_bucket_of_[static_cast<size_t>(order[j])] = index;
      ++j;
    }
    scan_buckets_.push_back(std::move(bucket));
    i = j;
  }
  const size_t n = scan_buckets_.size();
  scan_pass_.resize(n);
  for (int r = 0; r < kNumResourceDims; ++r) {
    std::vector<KeyEntry>& by_key = scan_by_key_[r];
    by_key.resize(n);
    for (size_t b = 0; b < n; ++b) {
      by_key[b] = KeyEntry{scan_buckets_[b].key[r], static_cast<int32_t>(b)};
    }
    std::sort(by_key.begin(), by_key.end(), [](const KeyEntry& a, const KeyEntry& b) {
      return a.key != b.key ? a.key > b.key : a.bucket < b.bucket;
    });
  }
  for (size_t b = 0; b < n; ++b) {
    scan_pass_[b] = BucketPass{0, static_cast<uint32_t>(scan_buckets_[b].members.size()), 0};
  }
}

void UrsaScheduler::CountHeadroom(const std::vector<WorkerLoad>& loads,
                                  int out[kNumMonotaskResources]) {
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    out[r] = 0;
  }
  for (const WorkerLoad& load : loads) {
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      if (load.d[r] > 0.0) {
        ++out[r];
      }
    }
  }
}

bool UrsaScheduler::BestWorker(const TaskUsage& usage, const LoadView& view, double ept,
                               WorkerId* out_worker, double* out_score,
                               WorkerId avoid) const {
  ++counters_.bestworker_calls;
  const Pick pick = BucketedScan(usage, view, ept, avoid, &counters_.workers_scanned);
  if (config_.verify_hot_path) {
    // Self-check: the linear scan is the reference the bucketed scan's
    // cutoffs must reproduce exactly. Its scan entries are not counted.
    int64_t unused = 0;
    const Pick ref = LinearScan(usage, view, ept, avoid, &unused);
    CHECK(pick.worker == ref.worker &&
          std::memcmp(&pick.score, &ref.score, sizeof(double)) == 0)
        << "bucketed scan picked worker " << pick.worker << " (score " << pick.score
        << "), linear scan worker " << ref.worker << " (score " << ref.score << ")";
  }
  if (pick.worker == kInvalidId) {
    return false;
  }
  *out_worker = pick.worker;
  *out_score = pick.score;
  return true;
}

UrsaScheduler::Pick UrsaScheduler::LinearScan(const TaskUsage& usage, const LoadView& view,
                                              double ept, WorkerId avoid,
                                              int64_t* scanned) const {
  Pick best;
  // The avoided worker's own score, consulted only when no other worker
  // qualifies.
  Pick fallback;
  const size_t n = view.base->size();
  for (size_t w = 0; w < n; ++w) {
    ++*scanned;
    double score = 0.0;
    if (!Algorithm1Score(usage, LoadAt(view, w), ept, view.headroom,
                         config_.consider_network, &score)) {
      continue;
    }
    if (static_cast<WorkerId>(w) == avoid) {
      fallback = Pick{avoid, score};
      continue;
    }
    if (score > best.score) {
      best = Pick{static_cast<WorkerId>(w), score};
    }
  }
  // Preference only: if the avoided worker is the sole candidate (e.g. a
  // one-worker cluster), place there rather than livelock.
  return best.worker != kInvalidId ? best : fallback;
}

UrsaScheduler::Pick UrsaScheduler::BucketedScan(const TaskUsage& usage,
                                                const LoadView& view, double ept,
                                                WorkerId avoid, int64_t* scanned) const {
  Pick best;  // Score -1 until a worker qualifies: below every bound.
  Pick fallback;  // As in LinearScan.
  // A dimension the task needs with headroom somewhere now had headroom at
  // scan-build time too (loads only worsen within a tick), so a zero mask
  // bit proves the linear scan would skip every member as blocked; the same
  // argument covers d_mem (failed workers prune here in O(1)).
  uint32_t required = 1u << kNumMonotaskResources;  // d_mem > 0, always.
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    if (!config_.consider_network &&
        static_cast<ResourceType>(r) == ResourceType::kNetwork) {
      continue;
    }
    if (usage.bytes[r] > 0.0 && view.headroom[r] > 0) {
      required |= 1u << r;
    }
  }
  double coef[kNumResourceDims];
  BoundCoefs(usage, ept, config_.consider_network, coef);

  // Pass 1: the threshold walk (Fagin, Lotem & Naor) over the base buckets.
  // It takes the next live bucket from the key list of each resource the
  // task uses and of memory, in turn; a bucket is live until this call
  // visits it or this pass moves all its members to the overlay (dead:
  // pass 2 scores them). A live bucket sits at or below every list's
  // frontier, so its score is at most tau, the bound at the frontier keys;
  // once the best score exceeds tau nothing live can beat or tie it.
  // Build-time keys and masks bound the fresh members for the whole tick, as
  // loads only worsen. A task without bytes or memory has the constant tie
  // term as its bound, which no score exceeds, so its walk is complete.
  // Fresh members of a bucket share one bit-identical load, so one Score
  // call scores them all and min-index-wins picks the smallest fresh id —
  // exactly what the ascending linear scan does, in whatever order the
  // buckets are visited.
  int dims[kNumResourceDims];
  int num_dims = 0;
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    if (coef[r] > 0.0) {
      dims[num_dims++] = r;
    }
  }
  dims[num_dims++] = static_cast<int>(ResourceDim::kMemory);
  const uint64_t stamp = ++scan_stamp_;
  size_t pos[kNumResourceDims] = {};
  for (int turn = 0;; turn = turn + 1 == num_dims ? 0 : turn + 1) {
    double frontier[kNumResourceDims] = {};
    bool exhausted = false;
    for (int i = 0; i < num_dims && !exhausted; ++i) {
      const std::vector<KeyEntry>& list = scan_by_key_[dims[i]];
      size_t& p = pos[dims[i]];
      while (p < list.size()) {
        const BucketPass& pass = scan_pass_[static_cast<size_t>(list[p].bucket)];
        if (pass.visited != stamp && pass.fresh > 0) {
          break;
        }
        ++p;
      }
      // Every list holds the same buckets, so one exhausted list means none
      // is live.
      exhausted = p == list.size();
      if (!exhausted) {
        frontier[dims[i]] = list[p].key;
      }
    }
    if (exhausted || best.score > BoundScore(coef, frontier, 1e-4)) {
      break;
    }
    const size_t b = static_cast<size_t>(scan_by_key_[dims[turn]][pos[dims[turn]]++].bucket);
    scan_pass_[b].visited = stamp;
    ++*scanned;
    const ScanBucket& bucket = scan_buckets_[b];
    if ((bucket.mask & required) != required) {
      continue;
    }
    // Smallest member still on its tick-start load: the cursor only moves
    // past members this pass has sent to the overlay (a live bucket keeps
    // at least one).
    const std::vector<WorkerId>& members = bucket.members;
    uint32_t& cursor = scan_pass_[b].cursor;
    while (overlay_slot_[static_cast<size_t>(members[cursor])] >= 0) {
      ++cursor;
    }
    WorkerId fresh = members[cursor];
    bool avoid_fresh = false;
    if (fresh == avoid) {
      avoid_fresh = true;
      fresh = kInvalidId;
      for (size_t i = cursor + 1; i < members.size(); ++i) {
        if (overlay_slot_[static_cast<size_t>(members[i])] < 0) {
          fresh = members[i];
          break;
        }
      }
    }
    const WorkerId probe = fresh != kInvalidId ? fresh : avoid;
    double score = 0.0;
    if (!Algorithm1Score(usage, (*view.base)[static_cast<size_t>(probe)], ept,
                         view.headroom, config_.consider_network, &score)) {
      continue;
    }
    if (avoid_fresh) {
      fallback = Pick{avoid, score};
    }
    if (fresh != kInvalidId &&
        (score > best.score || (score == best.score && fresh < best.worker))) {
      best = Pick{fresh, score};
    }
  }
  // Pass 2: overlay-modified workers, grouped by identical current load just
  // like pass 1 — one Score call per distinct modified load, however many
  // workers this tick's placements have already touched. Bucket keys and
  // masks are exact (workers change buckets on every placement), so the
  // same bound and skip arguments apply; the bound takes the bucket's own
  // tie term, which in a backlogged cluster is most of the score. The
  // avoided worker only needs explicit tracking when it is the bucket
  // minimum: any other member qualifies with the identical score, so the
  // avoid fallback would never fire.
  for (const OverlayBucket& bucket : overlay_buckets_) {
    if (bucket.members.empty()) {
      continue;  // Tombstone: every member moved to another load.
    }
    if (best.score > BoundScore(coef, bucket.key, TieTerm(usage, bucket.load))) {
      continue;
    }
    ++*scanned;
    if ((bucket.mask & required) != required) {
      continue;
    }
    WorkerId cand = bucket.members.front();
    bool avoid_here = false;
    if (cand == avoid) {
      avoid_here = true;
      cand = bucket.members.size() > 1 ? bucket.members[1] : kInvalidId;
    }
    double score = 0.0;
    if (!Algorithm1Score(usage, bucket.load, ept, view.headroom, config_.consider_network,
                         &score)) {
      continue;
    }
    if (avoid_here) {
      fallback = Pick{avoid, score};
    }
    if (cand != kInvalidId &&
        (score > best.score || (score == best.score && cand < best.worker))) {
      best = Pick{cand, score};
    }
  }
  return best.worker != kInvalidId ? best : fallback;
}

void UrsaScheduler::ApplyToLoad(const TaskUsage& usage, double ept, WorkerLoad* load,
                                int headroom[kNumMonotaskResources]) {
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    const double inc = usage.bytes[r] / std::max(load->rate[r], 1.0) / ept;
    const bool had = load->d[r] > 0.0;
    load->d[r] = std::max(0.0, load->d[r] - inc);
    if (had && load->d[r] <= 0.0) {
      --headroom[r];
    }
    load->apt[r] += inc * ept;
  }
  load->free_memory = std::max(0.0, load->free_memory - usage.memory);
  const size_t mem = static_cast<size_t>(ResourceDim::kMemory);
  load->d[mem] = load->free_memory / load->memory_capacity;
}

UrsaScheduler::StagePlan UrsaScheduler::ScoreStage(
    const JobEntry& entry, StageId stage, const std::vector<TaskId>& tasks,
    const std::vector<WorkerLoad>& base,
    const int base_headroom[kNumMonotaskResources], double ept) const {
  StagePlan plan;
  plan.job = entry.job->id;
  plan.stage = stage;
  plan.complete = true;
  // Overlay view: candidate scoring mutates only the workers it touches
  // instead of copying all W loads per candidate.
  int headroom[kNumMonotaskResources];
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    headroom[r] = base_headroom[r];
  }
  LoadView view;
  view.base = &base;
  view.headroom = headroom;
  double score_sum = 0.0;
  for (TaskId t : tasks) {
    const TaskUsage usage = entry.jm->GetUsage(t);
    WorkerId w = kInvalidId;
    double f = 0.0;
    if (!BestWorker(usage, view, ept, &w, &f, entry.jm->avoided_worker(t))) {
      plan.complete = false;  // The stage bonus <- 0 in Algorithm 1.
      continue;
    }
    plan.assignments.emplace_back(t, w);
    score_sum += f;
    OverlayApply(w, usage, ept, base, headroom);
  }
  OverlayReset();
  if (plan.assignments.empty()) {
    plan.score = -std::numeric_limits<double>::infinity();
    return plan;
  }
  plan.score = score_sum / static_cast<double>(plan.assignments.size());
  if (config_.stage_aware && plan.complete) {
    plan.score += kStageBonus;
  }
  if (config_.enable_job_ordering) {
    plan.score += PlacementPriorityBonus(
        EffectiveJobPolicy(config_.policy), kPriorityWeight,
        sim_->Now() - entry.job->submit_time, entry.srjf_rank);
    if (config_.policy == OrderingPolicy::kGraphene) {
      // "Do the hard stuff first": troublesome stages outrank the rest of
      // their job (the job term above is constant within a job), deeper
      // long-pole stages first.
      plan.score += GrapheneStageBonus(entry.crit.IsTroublesome(stage),
                                       entry.crit.BottomShare(stage));
    }
  }
  return plan;
}

UrsaScheduler::PlacementStats UrsaScheduler::RunPackingPlacement() {
  // Tetris / Tetris2 / Capacity (section 5.1.2): jobs in policy order,
  // stages FIFO, each task reserved at its peak demand until completion.
  PlacementStats stats;
  bool placed_any = true;
  while (placed_any) {
    placed_any = false;
    for (const auto& entry : jobs_) {
      if (!entry->admitted || entry->finished) {
        continue;
      }
      // Copy: PlaceTask mutates the ready list.
      const std::vector<TaskId> ready = entry->jm->ready_tasks();
      stats.candidates += static_cast<int64_t>(ready.size());
      for (TaskId t : ready) {
        const TaskUsage usage = entry->jm->GetUsage(t);
        const WorkerId w = packing_->SelectWorker(usage);
        if (w == kInvalidId) {
          continue;
        }
        if (entry->jm->PlaceTask(t, w)) {
          packing_->Reserve(entry->job->id, t, w, usage);
          ++stats.placed;
          placed_any = true;
        }
      }
    }
  }
  return stats;
}

void UrsaScheduler::RunSpeculation() {
  if (spec_manager_ == nullptr) {
    return;
  }
  const double now = sim_->Now();
  int running = 0;
  std::vector<StragglerCandidate> candidates;
  for (const auto& entry : jobs_) {
    if (!entry->admitted || entry->finished) {
      continue;
    }
    running += entry->jm->CountPlacedTasks();
    entry->jm->CollectStragglerCandidates(now, &candidates);
  }
  if (candidates.empty() || !spec_manager_->CanLaunch(running)) {
    return;
  }
  // Most-behind first: the LATE heuristic duplicates the task expected to
  // hold the stage back the longest.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const StragglerCandidate& a, const StragglerCandidate& b) {
                     return a.estimated_time_to_finish > b.estimated_time_to_finish;
                   });
  const double ept = config_.scheduling_interval * kEptSlack;
  const std::vector<WorkerLoad>& loads = CurrentLoads();
  int headroom[kNumMonotaskResources];
  CountHeadroom(loads, headroom);
  // Mutations go through the overlay so the bucket scan's fresh/modified
  // split stays exact against the refreshed base (see RunPlacement).
  LoadView view;
  view.base = &loads;
  view.headroom = headroom;
  for (const StragglerCandidate& cand : candidates) {
    if (!spec_manager_->CanLaunch(running)) {
      break;  // Wasted-work budget exhausted for this tick.
    }
    TaskUsage usage;
    for (int r = 0; r < kNumMonotaskResources; ++r) {
      usage.bytes[r] = cand.bytes[r];
    }
    usage.memory = cand.memory;
    JobEntry& entry = *jobs_[static_cast<size_t>(cand.job)];
    WorkerId w = kInvalidId;
    double f = 0.0;
    if (!BestWorker(usage, view, ept, &w, &f, cand.worker) ||
        w == cand.worker) {
      continue;  // No eligible worker besides the straggling one.
    }
    if (!entry.jm->PlaceSpeculative(cand.task, w)) {
      continue;
    }
    OverlayApply(w, usage, ept, loads, headroom);
  }
  OverlayReset();
}

UrsaScheduler::PlacementStats UrsaScheduler::RunPlacement() {
  if (packing_ != nullptr) {
    return RunPackingPlacement();
  }
  PlacementStats stats;
  const double ept = config_.scheduling_interval * kEptSlack;
  const std::vector<WorkerLoad>& master = CurrentLoads();
  int headroom[kNumMonotaskResources];
  CountHeadroom(master, headroom);

  // Gather candidate (job, stage, ready tasks) groups. The scan starts at the
  // rotation cursor so that when the pair budget truncates a tick, the jobs
  // deferred this tick are examined first on the next one instead of being
  // starved behind the same low-index jobs forever. The cursor stays at 0
  // across untruncated ticks, so runs that never hit the budget see the exact
  // submission-order scan.
  struct Candidate {
    JobEntry* entry;
    StageId stage;
    std::vector<TaskId> tasks;
  };
  std::vector<Candidate> candidates;
  size_t scored_pairs = 0;
  const size_t num_jobs = jobs_.size();
  const size_t start = num_jobs > 0 ? placement_scan_start_ % num_jobs : 0;
  size_t next_start = 0;
  bool truncated = false;
  for (size_t i = 0; i < num_jobs && !truncated; ++i) {
    const size_t j = (start + i) % num_jobs;
    const auto& entry = jobs_[j];
    if (!entry->admitted || entry->finished) {
      continue;
    }
    std::map<StageId, std::vector<TaskId>> by_stage;
    for (TaskId t : entry->jm->ready_tasks()) {
      by_stage[entry->job->plan.task(t).stage].push_back(t);
    }
    auto it = by_stage.begin();
    for (; it != by_stage.end() && scored_pairs <= config_.max_scored_pairs_per_tick; ++it) {
      auto& [stage, tasks] = *it;
      if (config_.stage_aware) {
        scored_pairs += tasks.size() * master.size();
        candidates.push_back(Candidate{entry.get(), stage, std::move(tasks)});
      } else {
        // Per-task placement ablation: each task is its own candidate.
        for (TaskId t : tasks) {
          scored_pairs += master.size();
          candidates.push_back(Candidate{entry.get(), stage, {t}});
        }
      }
    }
    if (scored_pairs > config_.max_scored_pairs_per_tick) {
      truncated = true;
      next_start = (j + 1) % num_jobs;
      // Deferred jobs: this one if the budget cut off some of its ready
      // stages, plus every later admitted job that has ready tasks.
      size_t skipped = it != by_stage.end() ? 1 : 0;
      for (size_t k = i + 1; k < num_jobs; ++k) {
        const JobEntry& rest = *jobs_[(start + k) % num_jobs];
        if (rest.admitted && !rest.finished && !rest.jm->ready_tasks().empty()) {
          ++skipped;
        }
      }
      // A budget crossed by the last ready stage defers nothing: the
      // cursor still rotates, but there is no truncation to report.
      if (skipped > 0) {
        LOG(Warning) << "placement candidate budget exhausted (" << scored_pairs
                     << " pairs); deferring " << skipped << " job(s) to next tick";
        ++counters_.scoring_truncated;
        if (tracer_ != nullptr) {
          tracer_->AdmissionEvent(sim_->Now(), TraceEventKind::kScoringTruncated,
                                  kInvalidId, 0, static_cast<double>(scored_pairs),
                                  static_cast<double>(skipped));
        }
      }
    }
  }
  placement_scan_start_ = truncated ? next_start : 0;
  for (const Candidate& c : candidates) {
    stats.candidates += static_cast<int64_t>(c.tasks.size());
  }
  if (candidates.empty()) {
    return stats;
  }

  // Score all candidates against the tick-start snapshot, then commit in
  // descending score order, re-resolving workers against the evolving master
  // load (an O(2 S T W) approximation of Algorithm 1's repeated rescoring).
  std::vector<std::pair<double, size_t>> order;
  order.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    StagePlan plan = ScoreStage(*c.entry, c.stage, c.tasks, master, headroom, ept);
    order.emplace_back(plan.score, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });

  // Commit pass: re-resolve against the evolving loads. Mutations go
  // through the overlay (ScoreStage left it clean) so the bucket scan keeps
  // an exact fresh/modified split against the tick-start master.
  LoadView view;
  view.base = &master;
  view.headroom = headroom;
  for (const auto& [score, idx] : order) {
    if (score == -std::numeric_limits<double>::infinity()) {
      continue;
    }
    const Candidate& c = candidates[idx];
    for (TaskId t : c.tasks) {
      if (c.entry->jm->task_state(t) != TaskState::kReady) {
        continue;
      }
      const TaskUsage usage = c.entry->jm->GetUsage(t);
      WorkerId w = kInvalidId;
      double f = 0.0;
      if (!BestWorker(usage, view, ept, &w, &f, c.entry->jm->avoided_worker(t))) {
        continue;
      }
      if (c.entry->jm->PlaceTask(t, w)) {
        OverlayApply(w, usage, ept, master, headroom);
        ++stats.placed;
      }
    }
  }
  OverlayReset();
  return stats;
}

}  // namespace ursa
