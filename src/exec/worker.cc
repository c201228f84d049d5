#include "src/exec/worker.h"

#include <algorithm>
#include <initializer_list>
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
  rates_[static_cast<size_t>(ResourceType::kNetwork)].rate = net_->downlink(id_);
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
  // without depending on lineage recovery.
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
  // In-flight monotasks are discarded without callbacks: the owning task is
  // re-placed by lineage recovery, not by per-monotask failure callbacks. A
  // network entry's flow still runs out, finds no entry and is a no-op.
  for (auto& [key, fl] : inflight_) {
    sim_->Cancel(fl.event);
    if (tracer_ != nullptr) {
      tracer_->MonotaskFinished(now, fl.trace_id, TraceEventKind::kLost, fl.type, id_, fl.job,
                                fl.id, fl.input_bytes, now - fl.start, fl.counted);
    }
  }
  inflight_.clear();
  for (size_t r = 0; r < kNumMonotaskResources; ++r) {
    slots_[r] = 0;
    running_bytes_[r] = 0.0;
  }
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

void Worker::KeepTrackerHistories() {
  for (StepTracker* t : {&cpu_busy_, &cpu_alloc_, &mem_used_, &mem_alloc_, &disk_busy_}) {
    t->KeepHistory();
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
    if (fl.type == ResourceType::kNetwork) {
      continue;  // The flow simulator owns its finish time.
    }
    fl.done_work = DoneWork(fl, now);
    sim_->Cancel(fl.event);
    fl.rate = WorkRate(fl.type);
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
  // +1 byte of float slack.
  if (mem_alloc_.current() + bytes > config_.memory_bytes + 1.0) {
    return false;
  }
  mem_alloc_.Add(sim_->Now(), bytes);
  MarkLoadChanged();
  return true;
}

void Worker::ReleaseMemory(double bytes) {
  if (failed_) {
    return;
  }
  const double allocated = mem_alloc_.current() - bytes;
  CHECK_GE(allocated, -1.0) << "memory release underflow";
  mem_alloc_.Set(sim_->Now(), std::max(allocated, 0.0));
  MarkLoadChanged();
}

void Worker::AddActualMemoryUse(double delta) {
  if (failed_) {
    return;
  }
  mem_used_.Set(sim_->Now(), std::max(mem_used_.current() + delta, 0.0));
}

double Worker::ApproxProcessingTime(ResourceType r) const {
  if (r == ResourceType::kCpu && HasIdleCpu()) {
    return 0.0;
  }
  const double pending = queue(r).queued_bytes() + running_bytes(r);
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
  cpu_busy_.Add(sim_->Now(), delta);
}

void Worker::AddCpuAllocated(double delta) {
  if (failed_) {
    return;
  }
  cpu_alloc_.Add(sim_->Now(), delta);
}

void Worker::AddDiskBusy(double delta) {
  if (failed_) {
    return;
  }
  disk_busy_.Add(sim_->Now(), delta);
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
  int& slots = slots_[static_cast<size_t>(r)];
  while (!queue(r).Empty() && slots < limit) {
    RunnableMonotask mt = queue(r).Pop();
    if (mt.cancel != nullptr && mt.cancel->cancelled) {
      continue;  // Cancelled while queued; its resources were never charged.
    }
    ++slots;
    Execute(std::move(mt), /*counted=*/true);
  }
}

double Worker::WorkRate(ResourceType r) const {
  return (r == ResourceType::kCpu ? config_.cpu_byte_rate : config_.disk_bytes_per_sec) *
         speed_factor_;
}

void Worker::AddRunningBytes(ResourceType r, double delta) {
  double& bytes = running_bytes_[static_cast<size_t>(r)];
  bytes = std::max(bytes + delta, 0.0);
}

void Worker::AddCountedOccupancy(const InFlight& fl, double delta) {
  if (!fl.counted) {
    return;
  }
  if (fl.type == ResourceType::kCpu) {
    AddCpuBusy(delta);
    AddCpuAllocated(delta);
  } else if (fl.type == ResourceType::kDisk) {
    AddDiskBusy(delta);
  }
}

void Worker::Execute(RunnableMonotask mt, bool counted) {
  const double now = sim_->Now();
  const ResourceType r = mt.type;
  AddRunningBytes(r, mt.input_bytes);
  if (tracer_ != nullptr) {
    tracer_->MonotaskDispatched(now, mt.trace_id, r, id_, mt.job, mt.id, mt.input_bytes,
                                now - mt.queued_time, counted);
  }
  // The entry is registered before its completion can be scheduled. Fail()
  // clears the registry, so a completion that fires after a failure (and
  // possibly a rejoin) finds nothing and never touches fresh accounting.
  const uint64_t key = next_inflight_key_++;
  InFlight& fl = inflight_[key];
  fl.type = r;
  fl.input_bytes = mt.input_bytes;
  fl.start = now;
  fl.resumed = now;
  fl.counted = counted;
  fl.job = mt.job;
  fl.id = mt.id;
  fl.trace_id = mt.trace_id;
  fl.cancel = std::move(mt.cancel);
  fl.on_complete = std::move(mt.on_complete);
  fl.on_failure = std::move(mt.on_failure);
  auto finish = [this, key] { FinishInFlight(key); };
  if (r != ResourceType::kNetwork) {
    AddCountedOccupancy(fl, 1.0);
    fl.work = std::max(mt.work, 0.0);
    fl.rate = WorkRate(r);
    fl.event = sim_->Schedule(fl.work / fl.rate, std::move(finish));
    return;
  }
  // Pull from every sender at once (section 4.2.3). The paper's contention
  // model considers only the receiver's bandwidth, so the concurrent pulls
  // are represented as one aggregate flow into this worker; purely local
  // gathers move at the local copy rate.
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
}

void Worker::FinishInFlight(uint64_t key) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    return;  // Lost to a failure or disarmed by SweepCancelled.
  }
  InFlight fl = std::move(it->second);
  inflight_.erase(it);
  const double elapsed = sim_->Now() - fl.start;
  AddCountedOccupancy(fl, -1.0);
  if (fl.cancel != nullptr && fl.cancel->cancelled) {
    // Cancelled but never swept (a CPU/disk copy cancelled after its last
    // (re)schedule), or a network transfer, which cannot be retracted
    // mid-flow: the work ran to completion, all of it wasted.
    DiscardCancelled(fl, elapsed, fl.input_bytes);
    return;
  }
  OnMonotaskDone(fl, elapsed);
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
    // Network entries are disarmed when their flow completes.
    if (fl.type == ResourceType::kNetwork || fl.cancel == nullptr || !fl.cancel->cancelled) {
      ++it;
      continue;
    }
    sim_->Cancel(fl.event);
    InFlight dead = std::move(fl);
    it = inflight_.erase(it);
    AddCountedOccupancy(dead, -1.0);
    const double done = DoneWork(dead, now);
    const double fraction = dead.work > 0.0 ? done / dead.work : 1.0;
    DiscardCancelled(dead, now - dead.start, fraction * dead.input_bytes);
  }
  MarkLoadChanged();
}

void Worker::DiscardCancelled(const InFlight& fl, double elapsed, double done_bytes) {
  AddRunningBytes(fl.type, -fl.input_bytes);
  if (tracer_ != nullptr) {
    tracer_->MonotaskFinished(sim_->Now(), fl.trace_id, TraceEventKind::kCancelled, fl.type,
                              id_, fl.job, fl.id, fl.input_bytes, elapsed, fl.counted);
  }
  if (waste_sink_) {
    waste_sink_(fl.type, done_bytes, elapsed);
  }
  if (fl.counted) {
    --slots_[static_cast<size_t>(fl.type)];
    PumpQueue(fl.type);
  }
  MarkLoadChanged();
}

void Worker::OnMonotaskDone(const InFlight& fl, double elapsed) {
  const ResourceType r = fl.type;
  AddRunningBytes(r, -fl.input_bytes);
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
  RecordRate(r, fl.input_bytes, elapsed);
  if (tracer_ != nullptr) {
    tracer_->MonotaskFinished(sim_->Now(), fl.trace_id,
                              transient_fail ? TraceEventKind::kFail
                                             : TraceEventKind::kComplete,
                              r, id_, fl.job, fl.id, fl.input_bytes, elapsed, fl.counted);
  }
  if (transient_fail) {
    if (fl.on_failure) {
      fl.on_failure();
    }
  } else {
    ++completed_[static_cast<size_t>(r)];
    if (fl.on_complete) {
      fl.on_complete();
    }
  }
  if (fl.counted) {
    --slots_[static_cast<size_t>(r)];
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
