#include "src/exec/worker.h"

#include <algorithm>
#include <memory>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace ursa {

namespace {

// Observation window of the per-resource processing-rate monitors (seconds).
constexpr double kRateWindow = 5.0;

}  // namespace

Worker::Worker(Simulator* sim, FlowSimulator* net, WorkerId id, const WorkerConfig& config)
    : sim_(sim), net_(net), id_(id), config_(config) {
  CHECK_GT(config_.cores, 0);
  CHECK_GT(config_.cpu_byte_rate, 0.0);
  CHECK_GT(config_.memory_bytes, 0.0);
  CHECK_GT(config_.disks, 0);
  CHECK_GT(config_.disk_bytes_per_sec, 0.0);
  CHECK_GT(config_.network_concurrency, 0);
  ResetRateMonitors(0.0);
}

void Worker::ResetRateMonitors(double now) {
  for (RateMonitor& mon : rates_) {
    mon = RateMonitor{};
    mon.window_start = now;
  }
  rates_[static_cast<size_t>(ResourceType::kCpu)].rate = config_.cpu_byte_rate;
  rates_[static_cast<size_t>(ResourceType::kNetwork)].rate = config_.default_net_rate;
  rates_[static_cast<size_t>(ResourceType::kDisk)].rate = config_.disk_bytes_per_sec;
}

void Worker::Fail() {
  if (failed_) {
    return;  // Idempotent: never double-zero accounting.
  }
  failed_ = true;
  const double now = sim_->Now();
  failed_since_ = now;
  ++failure_epoch_;
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(now, TraceEventKind::kWorkerFail, id_);
  }
  // Drain the queues and zero occupancy. Each drained monotask reports its
  // loss (deferred, like the Submit-on-failed path) so job managers notice
  // without depending on lineage recovery. In-flight network completion
  // events are cancelled by the failure-epoch guard in Execute()'s lambdas;
  // registered CPU/disk monotasks are dropped here (their completion events
  // find no registry entry and no-op).
  for (auto& q : queues_) {
    while (!q.Empty()) {
      RunnableMonotask mt = q.Pop();
      if (mt.cancel != nullptr && mt.cancel->cancelled) {
        continue;  // Cancelled work has no listener to notify.
      }
      if (mt.on_failure) {
        sim_->Schedule(0.0, std::move(mt.on_failure));
      }
    }
  }
  // In-flight CPU/disk monotasks are discarded silently, exactly like the
  // pre-registry epoch guard did: the owning task is re-placed by lineage
  // recovery, not by per-monotask failure callbacks.
  for (auto& [key, fl] : inflight_) {
    sim_->Cancel(fl.event);
    TraceLost(fl.type, fl.input_bytes, now - fl.start, fl.counted, fl.job, fl.id,
              fl.trace_id);
  }
  inflight_.clear();
  ledger_.ResetForFailure();
  cpu_busy_.Set(now, 0.0);
  cpu_alloc_.Set(now, 0.0);
  disk_busy_.Set(now, 0.0);
  mem_alloc_.Set(now, 0.0);
  mem_used_.Set(now, 0.0);
  MarkLoadChanged();
  if (fail_listener_) {
    fail_listener_(id_);
  }
}

void Worker::Recover() {
  if (!failed_) {
    return;
  }
  failed_ = false;
  if (tracer_ != nullptr) {
    tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kWorkerRecover, id_);
  }
  // The machine comes back empty: queues and occupancy were cleared at
  // failure time; rate monitors restart from factory defaults, and any
  // straggler injection is gone with the old process.
  ResetRateMonitors(sim_->Now());
  speed_factor_ = 1.0;
  pending_transient_failures_ = 0;
  transient_failure_prob_ = 0.0;
  MarkLoadChanged();
}

void Worker::StartHeartbeats(double interval, std::function<void(WorkerId)> sink,
                             std::function<bool()> active) {
  CHECK_GT(interval, 0.0);
  hb_interval_ = interval;
  hb_sink_ = std::move(sink);
  hb_active_ = std::move(active);
  if (hb_running_) {
    return;
  }
  hb_running_ = true;
  ScheduleHeartbeat();
}

void Worker::ScheduleHeartbeat() {
  sim_->Schedule(hb_interval_, [this] {
    if (!hb_active_ || !hb_active_()) {
      hb_running_ = false;  // Let the simulator drain; restartable.
      return;
    }
    if (!failed_ && hb_sink_) {
      hb_sink_(id_);
    }
    ScheduleHeartbeat();
  });
}

void Worker::SetTransientFailureProfile(double p, uint64_t seed) {
  CHECK_GE(p, 0.0);
  CHECK_LE(p, 1.0);
  transient_failure_prob_ = p;
  transient_rng_ = Rng(seed);
}

void Worker::set_speed_factor(double factor) {
  CHECK_GT(factor, 0.0);
  CHECK_LE(factor, 1.0);
  if (factor == speed_factor_) {
    return;
  }
  speed_factor_ = factor;
  if (failed_) {
    return;
  }
  // Apply to in-flight monotasks: bank the work done at the old rate and
  // reschedule the remainder at the new one. Without this, completion events
  // scheduled at dispatch time would ignore the change and a short
  // degraded-rate window could silently do nothing.
  const double now = sim_->Now();
  for (auto& [key, fl] : inflight_) {
    fl.done_work = DoneWork(fl, now);
    sim_->Cancel(fl.event);
    fl.rate = (fl.type == ResourceType::kCpu ? config_.cpu_byte_rate
                                             : config_.disk_bytes_per_sec) *
              speed_factor_;
    fl.resumed = now;
    const double remaining = std::max(0.0, fl.work - fl.done_work);
    const uint64_t k = key;
    fl.event = sim_->Schedule(remaining / fl.rate, [this, k] { FinishInFlight(k); });
  }
  MarkLoadChanged();
}

double Worker::DoneWork(const InFlight& fl, double now) {
  return std::min(fl.work, fl.done_work + (now - fl.resumed) * fl.rate);
}

void Worker::Submit(RunnableMonotask mt) {
  if (mt.cancel != nullptr && mt.cancel->cancelled) {
    return;  // Cancelled before submission; nobody is waiting.
  }
  if (failed_) {
    // Never strand the caller: report the loss so the job manager can
    // re-place the task instead of waiting forever (section 4.3).
    if (mt.on_failure) {
      sim_->Schedule(0.0, std::move(mt.on_failure));
    }
    return;
  }
  mt.queued_time = sim_->Now();
  if (tracer_ != nullptr) {
    mt.trace_id =
        tracer_->MonotaskQueued(mt.queued_time, mt.type, id_, mt.job, mt.id, mt.input_bytes);
  }
  // Latency-sensitive small network monotasks bypass the queue entirely and
  // do not consume a concurrency slot (section 4.2.3).
  if (mt.type == ResourceType::kNetwork &&
      mt.input_bytes < config_.small_transfer_bypass_bytes) {
    Execute(std::move(mt), /*counted=*/false);
    MarkLoadChanged();
    return;
  }
  const ResourceType r = mt.type;
  queue(r).Push(std::move(mt));
  PumpQueue(r);
  MarkLoadChanged();
}

void Worker::Reprioritize(const std::function<double(JobId)>& priority_of) {
  for (auto& q : queues_) {
    q.Reprioritize(priority_of);
  }
}

bool Worker::TryAllocateMemory(double bytes) {
  CHECK_GE(bytes, 0.0);
  if (failed_) {
    return false;
  }
  double allocated = 0.0;
  if (!ledger_.TryAllocateMemory(bytes, config_.memory_bytes, &allocated)) {
    return false;
  }
  mem_alloc_.Set(sim_->Now(), allocated);
  MarkLoadChanged();
  return true;
}

void Worker::ReleaseMemory(double bytes) {
  if (failed_) {
    return;
  }
  mem_alloc_.Set(sim_->Now(), ledger_.ReleaseMemory(bytes));
  MarkLoadChanged();
}

void Worker::AddActualMemoryUse(double delta) {
  if (failed_) {
    return;
  }
  mem_used_.Set(sim_->Now(), ledger_.AddActualMemoryUse(delta));
}

double Worker::ApproxProcessingTime(ResourceType r) const {
  if (r == ResourceType::kCpu && HasIdleCpu()) {
    return 0.0;
  }
  const double pending = queue(r).queued_bytes() + ledger_.running_bytes(r);
  const double rate = ProcessingRate(r);
  if (rate <= 0.0) {
    return pending > 0.0 ? 1e18 : 0.0;
  }
  return pending / rate;
}

double Worker::ProcessingRate(ResourceType r) const {
  const RateMonitor& mon = rates_[static_cast<size_t>(r)];
  double rate = mon.rate;
  if (r == ResourceType::kCpu) {
    rate *= config_.cores;
  }
  return rate;
}

void Worker::AddCpuBusy(double delta) {
  if (failed_) {
    return;
  }
  cpu_busy_.Set(sim_->Now(), ledger_.AddOccupancy(OccupancyKind::kCpuBusy, delta));
}

void Worker::AddCpuAllocated(double delta) {
  if (failed_) {
    return;
  }
  cpu_alloc_.Set(sim_->Now(), ledger_.AddOccupancy(OccupancyKind::kCpuAlloc, delta));
}

void Worker::AddDiskBusy(double delta) {
  if (failed_) {
    return;
  }
  disk_busy_.Set(sim_->Now(), ledger_.AddOccupancy(OccupancyKind::kDiskBusy, delta));
}

int Worker::SlotLimit(ResourceType r) const {
  switch (r) {
    case ResourceType::kCpu:
      return config_.cores;
    case ResourceType::kNetwork:
      return config_.network_concurrency;
    case ResourceType::kDisk:
      return config_.disks;
  }
  LOG(Fatal) << "unknown resource type";
  return 0;
}

void Worker::PumpQueue(ResourceType r) {
  const int limit = SlotLimit(r);
  while (!queue(r).Empty()) {
    if (!ledger_.TryAcquireSlot(r, limit)) {
      return;
    }
    RunnableMonotask mt = queue(r).Pop();
    if (mt.cancel != nullptr && mt.cancel->cancelled) {
      // Cancelled while queued; its resources were never charged.
      ledger_.ReleaseSlot(r);
      continue;
    }
    Execute(std::move(mt), /*counted=*/true);
  }
}

void Worker::Execute(RunnableMonotask mt, bool counted) {
  const double now = sim_->Now();
  const ResourceType r = mt.type;
  ledger_.AddRunningBytes(r, mt.input_bytes);
  const double input_bytes = mt.input_bytes;
  const JobId job = mt.job;
  const MonotaskId mid = mt.id;
  const uint64_t trace_id = mt.trace_id;
  if (tracer_ != nullptr) {
    tracer_->MonotaskDispatched(now, trace_id, r, id_, job, mid, input_bytes,
                                now - mt.queued_time, counted);
  }
  // Completion events scheduled below belong to this failure epoch. If the
  // worker fails (and possibly recovers) before they fire, the events are
  // stale: their occupancy was zeroed by Fail() and their result is lost, so
  // they must be discarded instead of decrementing the rejoined worker's
  // fresh accounting and delivering stale callbacks. CPU/disk monotasks are
  // guarded by their registry entry (Fail() clears it); network lambdas keep
  // the explicit epoch check.
  const int epoch = failure_epoch_;
  std::function<void()> on_complete = std::move(mt.on_complete);
  std::function<void()> on_failure = std::move(mt.on_failure);
  switch (r) {
    case ResourceType::kCpu:
    case ResourceType::kDisk: {
      if (counted) {
        if (r == ResourceType::kCpu) {
          AddCpuBusy(1.0);
          AddCpuAllocated(1.0);
        } else {
          AddDiskBusy(1.0);
        }
      }
      InFlight fl;
      fl.type = r;
      fl.input_bytes = input_bytes;
      fl.work = std::max(mt.work, 0.0);
      fl.start = now;
      fl.resumed = now;
      fl.rate = (r == ResourceType::kCpu ? config_.cpu_byte_rate
                                         : config_.disk_bytes_per_sec) *
                speed_factor_;
      fl.counted = counted;
      fl.job = job;
      fl.id = mid;
      fl.trace_id = trace_id;
      fl.cancel = std::move(mt.cancel);
      fl.on_complete = std::move(on_complete);
      fl.on_failure = std::move(on_failure);
      const uint64_t key = next_inflight_key_++;
      fl.event = sim_->Schedule(fl.work / fl.rate, [this, key] { FinishInFlight(key); });
      inflight_.emplace(key, std::move(fl));
      break;
    }
    case ResourceType::kNetwork: {
      // Pull from every sender at once (section 4.2.3). The paper's
      // contention model considers only the receiver's bandwidth, so the
      // concurrent pulls are represented as one aggregate flow into this
      // worker; purely local gathers move at the local copy rate.
      const double start = now;
      auto finish = [this, epoch, r, input_bytes, start, counted, job, mid, trace_id,
                     cancel = std::move(mt.cancel), cb = std::move(on_complete),
                     fb = std::move(on_failure)]() mutable {
        const double elapsed = sim_->Now() - start;
        if (failure_epoch_ != epoch || failed_) {
          TraceLost(r, input_bytes, elapsed, counted, job, mid, trace_id);
          return;
        }
        if (cancel != nullptr && cancel->cancelled) {
          // A flow cannot be retracted mid-transfer, so a cancelled network
          // monotask is disarmed here: the whole transfer is wasted work.
          DiscardCancelled(r, input_bytes, elapsed, counted, job, mid, trace_id,
                           input_bytes);
          return;
        }
        OnMonotaskDone(r, input_bytes, elapsed, counted, job, mid, trace_id,
                       std::move(cb), std::move(fb));
      };
      double remote_bytes = 0.0;
      double local_bytes = 0.0;
      WorkerId biggest_src = id_;
      double biggest = -1.0;
      for (const RunnableMonotask::Pull& pull : mt.pulls) {
        if (pull.src == id_) {
          local_bytes += pull.bytes;
        } else {
          remote_bytes += pull.bytes;
          if (pull.bytes > biggest) {
            biggest = pull.bytes;
            biggest_src = pull.src;
          }
        }
      }
      if (remote_bytes > 0.0) {
        net_->StartFlow(biggest_src, id_, remote_bytes + local_bytes, std::move(finish));
      } else if (local_bytes > 0.0) {
        net_->StartFlow(id_, id_, local_bytes, std::move(finish));
      } else {
        sim_->Schedule(0.0, std::move(finish));
      }
      break;
    }
  }
}

void Worker::TraceLost(ResourceType r, double input_bytes, double elapsed, bool counted,
                       JobId job, MonotaskId monotask, uint64_t trace_id) {
  if (tracer_ != nullptr) {
    tracer_->MonotaskFinished(sim_->Now(), trace_id, TraceEventKind::kLost, r, id_, job,
                              monotask, input_bytes, elapsed, counted);
  }
}

void Worker::FinishInFlight(uint64_t key) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    return;  // Lost to a failure epoch or disarmed by SweepCancelled.
  }
  InFlight fl = std::move(it->second);
  inflight_.erase(it);
  const double now = sim_->Now();
  const double elapsed = now - fl.start;
  if (fl.counted) {
    if (fl.type == ResourceType::kCpu) {
      AddCpuBusy(-1.0);
      AddCpuAllocated(-1.0);
    } else {
      AddDiskBusy(-1.0);
    }
  }
  if (fl.cancel != nullptr && fl.cancel->cancelled) {
    // Cancelled after the last (re)schedule but never swept: the work ran to
    // completion, all of it wasted.
    DiscardCancelled(fl.type, fl.input_bytes, elapsed, fl.counted, fl.job, fl.id,
                     fl.trace_id, fl.input_bytes);
    return;
  }
  OnMonotaskDone(fl.type, fl.input_bytes, elapsed, fl.counted, fl.job, fl.id, fl.trace_id,
                 std::move(fl.on_complete), std::move(fl.on_failure));
}

void Worker::SweepCancelled() {
  if (failed_) {
    return;  // Fail() already cleared queues, registry and occupancy.
  }
  for (auto& q : queues_) {
    q.RemoveCancelled();
  }
  const double now = sim_->Now();
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    InFlight& fl = it->second;
    if (fl.cancel == nullptr || !fl.cancel->cancelled) {
      ++it;
      continue;
    }
    sim_->Cancel(fl.event);
    InFlight dead = std::move(fl);
    it = inflight_.erase(it);
    if (dead.counted) {
      if (dead.type == ResourceType::kCpu) {
        AddCpuBusy(-1.0);
        AddCpuAllocated(-1.0);
      } else {
        AddDiskBusy(-1.0);
      }
    }
    const double done = DoneWork(dead, now);
    const double fraction = dead.work > 0.0 ? done / dead.work : 1.0;
    DiscardCancelled(dead.type, dead.input_bytes, now - dead.start, dead.counted, dead.job,
                     dead.id, dead.trace_id, fraction * dead.input_bytes);
  }
  MarkLoadChanged();
}

void Worker::DiscardCancelled(ResourceType r, double input_bytes, double elapsed,
                              bool counted, JobId job, MonotaskId monotask,
                              uint64_t trace_id, double done_bytes) {
  ledger_.AddRunningBytes(r, -input_bytes);
  if (tracer_ != nullptr) {
    tracer_->MonotaskFinished(sim_->Now(), trace_id, TraceEventKind::kCancelled, r, id_,
                              job, monotask, input_bytes, elapsed, counted);
  }
  if (waste_sink_) {
    waste_sink_(r, done_bytes, elapsed);
  }
  if (counted) {
    ledger_.ReleaseSlot(r);
    PumpQueue(r);
  }
  MarkLoadChanged();
}

void Worker::OnMonotaskDone(ResourceType r, double input_bytes, double elapsed, bool counted,
                            JobId job, MonotaskId monotask, uint64_t trace_id,
                            std::function<void()> on_complete,
                            std::function<void()> on_failure) {
  ledger_.AddRunningBytes(r, -input_bytes);
  // Transient failure: the monotask consumed its resources but produced no
  // result. Injected (scheduled) failures take precedence over the
  // probabilistic profile.
  bool transient_fail = false;
  if (pending_transient_failures_ > 0) {
    --pending_transient_failures_;
    transient_fail = true;
  } else if (transient_failure_prob_ > 0.0 &&
             transient_rng_.Bernoulli(transient_failure_prob_)) {
    transient_fail = true;
  }
  RecordRate(r, input_bytes, elapsed);
  if (tracer_ != nullptr) {
    tracer_->MonotaskFinished(sim_->Now(), trace_id,
                              transient_fail ? TraceEventKind::kFail
                                             : TraceEventKind::kComplete,
                              r, id_, job, monotask, input_bytes, elapsed, counted);
  }
  if (transient_fail) {
    if (on_failure) {
      on_failure();
    }
  } else {
    ledger_.IncrementCompleted(r);
    if (on_complete) {
      on_complete();
    }
  }
  if (counted) {
    ledger_.ReleaseSlot(r);
    PumpQueue(r);
  }
  MarkLoadChanged();
}

void Worker::RecordRate(ResourceType r, double bytes, double elapsed) {
  RateMonitor& mon = rates_[static_cast<size_t>(r)];
  mon.acc_bytes += bytes;
  mon.acc_time += elapsed;
  const double now = sim_->Now();
  if (now - mon.window_start >= kRateWindow) {
    if (mon.acc_time > 1e-9 && mon.acc_bytes > 0.0) {
      mon.rate = mon.acc_bytes / mon.acc_time;
    }
    mon.acc_bytes = 0.0;
    mon.acc_time = 0.0;
    mon.window_start = now;
  }
}

}  // namespace ursa
