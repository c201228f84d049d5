#include "src/obs/trace.h"

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "src/common/logging.h"
#include "src/common/table.h"

namespace ursa {

namespace {

// Synthetic pid for events that belong to no worker (scheduler ticks, task
// readiness); workers use their WorkerId as pid.
constexpr int kSchedulerPid = 999999;

const char* StatusName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kComplete:
      return "complete";
    case TraceEventKind::kFail:
      return "fail";
    case TraceEventKind::kLost:
      return "lost";
    case TraceEventKind::kCancelled:
      return "cancelled";
    default:
      return "?";
  }
}

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kQueued:
      return "queued";
    case TraceEventKind::kDispatch:
      return "dispatch";
    case TraceEventKind::kComplete:
      return "complete";
    case TraceEventKind::kFail:
      return "fail";
    case TraceEventKind::kLost:
      return "lost";
    case TraceEventKind::kTaskReady:
      return "task_ready";
    case TraceEventKind::kTaskPlaced:
      return "task_placed";
    case TraceEventKind::kTaskCompleted:
      return "task_completed";
    case TraceEventKind::kTick:
      return "tick";
    case TraceEventKind::kWorkerFail:
      return "worker_fail";
    case TraceEventKind::kWorkerRecover:
      return "worker_recover";
    case TraceEventKind::kDetection:
      return "detection";
    case TraceEventKind::kRejoin:
      return "rejoin";
    case TraceEventKind::kCancelled:
      return "cancelled";
    case TraceEventKind::kSpecLaunched:
      return "spec_launched";
    case TraceEventKind::kSpecWon:
      return "spec_won";
    case TraceEventKind::kSpecLost:
      return "spec_lost";
    case TraceEventKind::kSpecCancelled:
      return "spec_cancelled";
    case TraceEventKind::kAdmit:
      return "admit";
    case TraceEventKind::kShed:
      return "shed";
    case TraceEventKind::kDefer:
      return "defer";
    case TraceEventKind::kBackpressure:
      return "backpressure";
    case TraceEventKind::kMsgDrop:
      return "msg_drop";
    case TraceEventKind::kMsgDup:
      return "msg_dup";
    case TraceEventKind::kMsgFenced:
      return "msg_fenced";
    case TraceEventKind::kSchedCrash:
      return "sched_crash";
    case TraceEventKind::kSchedRecover:
      return "sched_recover";
    case TraceEventKind::kCheckpoint:
      return "checkpoint";
    case TraceEventKind::kResync:
      return "resync";
  }
  return "?";
}

Tracer::Tracer(const TracerConfig& config) : config_(config) {
  CHECK_GT(config_.capacity, 0u);
  CHECK_GE(config_.sample, 1);
  ring_.reserve(std::min(config_.capacity, size_t{1} << 16));
}

void Tracer::Push(const TraceEvent& event) {
  if (ring_.size() < config_.capacity) {
    ring_.push_back(event);
    return;
  }
  ring_[next_slot_] = event;
  if (++next_slot_ == config_.capacity) {
    next_slot_ = 0;
  }
  ++dropped_;
}

uint64_t Tracer::MonotaskQueued(double now, ResourceType r, WorkerId w, JobId j,
                                MonotaskId m, double bytes) {
  if (config_.sample > 1 &&
      (sample_counter_++ % static_cast<uint64_t>(config_.sample)) != 0) {
    return 0;
  }
  const uint64_t id = ++next_seq_;
  TraceEvent event;
  event.kind = TraceEventKind::kQueued;
  event.t = now;
  event.a = bytes;
  event.seq = id;
  event.job = j;
  event.monotask = m;
  event.worker = w;
  event.resource = static_cast<int8_t>(r);
  Push(event);
  return id;
}

void Tracer::MonotaskDispatched(double now, uint64_t id, ResourceType r, WorkerId w,
                                JobId j, MonotaskId m, double bytes, double queue_wait,
                                bool counted) {
  if (id == 0) {
    return;
  }
  TraceEvent event;
  event.kind = TraceEventKind::kDispatch;
  event.t = now;
  event.a = bytes;
  event.b = queue_wait;
  event.seq = id;
  event.job = j;
  event.monotask = m;
  event.worker = w;
  event.resource = static_cast<int8_t>(r);
  event.counted = counted;
  Push(event);
}

void Tracer::MonotaskFinished(double now, uint64_t id, TraceEventKind kind, ResourceType r,
                              WorkerId w, JobId j, MonotaskId m, double bytes,
                              double service, bool counted) {
  if (id == 0) {
    return;
  }
  CHECK(kind == TraceEventKind::kComplete || kind == TraceEventKind::kFail ||
        kind == TraceEventKind::kLost || kind == TraceEventKind::kCancelled);
  TraceEvent event;
  event.kind = kind;
  event.t = now;
  event.a = bytes;
  event.b = service;
  event.seq = id;
  event.job = j;
  event.monotask = m;
  event.worker = w;
  event.resource = static_cast<int8_t>(r);
  event.counted = counted;
  Push(event);
}

void Tracer::TaskEvent(double now, TraceEventKind kind, JobId j, TaskId task,
                       StageId stage, WorkerId w) {
  TraceEvent event;
  event.kind = kind;
  event.t = now;
  event.job = j;
  event.task = task;
  event.stage = stage;
  event.worker = w;
  Push(event);
}

void Tracer::SchedulerTick(double now, int64_t candidates, int64_t placed,
                           double wall_us) {
  ++ticks_.ticks;
  ticks_.candidates += candidates;
  ticks_.placed += placed;
  ticks_.total_wall_us += wall_us;
  ticks_.max_wall_us = std::max(ticks_.max_wall_us, wall_us);
  TraceEvent event;
  event.kind = TraceEventKind::kTick;
  event.t = now;
  event.a = static_cast<double>(candidates);
  event.b = static_cast<double>(placed);
  event.wall_us = wall_us;
  Push(event);
}

void Tracer::WorkerEvent(double now, TraceEventKind kind, WorkerId w, double latency) {
  TraceEvent event;
  event.kind = kind;
  event.t = now;
  event.a = latency;
  event.worker = w;
  Push(event);
}

void Tracer::AdmissionEvent(double now, TraceEventKind kind, JobId j, int tier, double a,
                            double b) {
  CHECK(kind == TraceEventKind::kAdmit || kind == TraceEventKind::kShed ||
        kind == TraceEventKind::kDefer || kind == TraceEventKind::kBackpressure);
  TraceEvent event;
  event.kind = kind;
  event.t = now;
  event.a = a;
  event.b = b;
  event.job = j;
  event.stage = tier;  // No stage for job-level events; the slot carries the tier.
  Push(event);
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  // Oldest-first: once the ring wrapped, next_slot_ points at the oldest.
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_slot_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(next_slot_));
  return out;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  char buf[512];
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const char* line) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << line;
  };
  // Name the synthetic scheduler process so traces are self-describing.
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"args\":{\"name\":\"scheduler\"}}",
                kSchedulerPid);
  emit(buf);
  for (const TraceEvent& e : Snapshot()) {
    const double ts = e.t * 1e6;  // Chrome expects microseconds.
    const char* res =
        e.resource >= 0 ? ResourceTypeName(static_cast<ResourceType>(e.resource)) : "-";
    switch (e.kind) {
      case TraceEventKind::kQueued:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"queued\",\"cat\":\"monotask\",\"ph\":\"i\","
                      "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                      "\"args\":{\"seq\":%" PRIu64
                      ",\"job\":%d,\"monotask\":%d,\"resource\":\"%s\",\"bytes\":%.9g}}",
                      ts, e.worker, e.resource, e.seq, e.job, e.monotask, res, e.a);
        emit(buf);
        break;
      case TraceEventKind::kDispatch:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s j%d m%d\",\"cat\":\"monotask\",\"ph\":\"b\","
                      "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                      "\"args\":{\"seq\":%" PRIu64
                      ",\"job\":%d,\"monotask\":%d,\"resource\":\"%s\",\"bytes\":%.9g,"
                      "\"queue_wait_s\":%.9g,\"counted\":%s}}",
                      res, e.job, e.monotask, e.seq, ts, e.worker, e.resource, e.seq,
                      e.job, e.monotask, res, e.a, e.b, e.counted ? "true" : "false");
        emit(buf);
        break;
      case TraceEventKind::kComplete:
      case TraceEventKind::kFail:
      case TraceEventKind::kLost:
      case TraceEventKind::kCancelled:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s j%d m%d\",\"cat\":\"monotask\",\"ph\":\"e\","
                      "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                      "\"args\":{\"seq\":%" PRIu64
                      ",\"status\":\"%s\",\"resource\":\"%s\",\"service_s\":%.9g,"
                      "\"counted\":%s}}",
                      res, e.job, e.monotask, e.seq, ts, e.worker, e.resource, e.seq,
                      StatusName(e.kind), res, e.b, e.counted ? "true" : "false");
        emit(buf);
        break;
      case TraceEventKind::kSpecLaunched:
      case TraceEventKind::kSpecWon:
      case TraceEventKind::kSpecLost:
      case TraceEventKind::kSpecCancelled:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"spec\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
                      "\"args\":{\"job\":%d,\"task\":%d,\"stage\":%d,\"worker\":%d}}",
                      TraceEventKindName(e.kind), ts,
                      e.worker == kInvalidId ? kSchedulerPid : e.worker, e.job, e.task,
                      e.stage, e.worker);
        emit(buf);
        break;
      case TraceEventKind::kTaskReady:
      case TraceEventKind::kTaskPlaced:
      case TraceEventKind::kTaskCompleted:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"task\",\"ph\":\"i\",\"s\":\"t\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
                      "\"args\":{\"job\":%d,\"task\":%d,\"stage\":%d,\"worker\":%d}}",
                      TraceEventKindName(e.kind), ts,
                      e.worker == kInvalidId ? kSchedulerPid : e.worker, e.job, e.task,
                      e.stage, e.worker);
        emit(buf);
        break;
      case TraceEventKind::kTick:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"tick\",\"cat\":\"scheduler\",\"ph\":\"i\",\"s\":\"p\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
                      "\"args\":{\"candidates\":%.0f,\"placed\":%.0f,\"wall_us\":%.3f}}",
                      ts, kSchedulerPid, e.a, e.b, e.wall_us);
        emit(buf);
        break;
      case TraceEventKind::kWorkerFail:
      case TraceEventKind::kWorkerRecover:
      case TraceEventKind::kDetection:
      case TraceEventKind::kRejoin:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
                      "\"args\":{\"worker\":%d,\"latency_s\":%.9g}}",
                      TraceEventKindName(e.kind), ts, e.worker, e.worker, e.a);
        emit(buf);
        break;
      case TraceEventKind::kMsgDrop:
      case TraceEventKind::kMsgDup:
      case TraceEventKind::kMsgFenced:
      case TraceEventKind::kSchedCrash:
      case TraceEventKind::kSchedRecover:
      case TraceEventKind::kCheckpoint:
      case TraceEventKind::kResync:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
                      "\"args\":{\"worker\":%d,\"latency_s\":%.9g}}",
                      TraceEventKindName(e.kind), ts,
                      e.worker == kInvalidId ? kSchedulerPid : e.worker, e.worker, e.a);
        emit(buf);
        break;
      case TraceEventKind::kAdmit:
      case TraceEventKind::kShed:
      case TraceEventKind::kDefer:
      case TraceEventKind::kBackpressure:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"g\","
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":0,"
                      "\"args\":{\"job\":%d,\"tier\":%d,\"a\":%.9g,\"b\":%.9g}}",
                      TraceEventKindName(e.kind), ts, kSchedulerPid, e.job, e.stage, e.a,
                      e.b);
        emit(buf);
        break;
    }
  }
  os << "\n]}\n";
}

bool Tracer::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    LOG(Warning) << "cannot open trace output file " << path;
    return false;
  }
  WriteChromeTrace(out);
  return static_cast<bool>(out);
}

std::array<Tracer::ResourceSummary, kNumMonotaskResources> Tracer::SummarizeMonotasks()
    const {
  std::array<MonotaskTally, kNumMonotaskResources> tallies;
  // Iterate the ring in place (counts and histograms are order-independent);
  // Snapshot() would copy every retained event.
  for (const TraceEvent& e : ring_) {
    if (e.resource < 0 || e.resource >= kNumMonotaskResources) {
      continue;
    }
    MonotaskTally& tally = tallies[static_cast<size_t>(e.resource)];
    switch (e.kind) {
      case TraceEventKind::kQueued:
        tally.Queued();
        break;
      case TraceEventKind::kDispatch:
        tally.Dispatched(e.b);
        break;
      case TraceEventKind::kComplete:
      case TraceEventKind::kFail:
      case TraceEventKind::kLost:
      case TraceEventKind::kCancelled:
        tally.Finished(e.kind, e.b, e.counted);
        break;
      default:
        break;
    }
  }
  std::array<ResourceSummary, kNumMonotaskResources> out;
  for (size_t r = 0; r < out.size(); ++r) {
    out[r] = tallies[r].Result();
  }
  return out;
}

void MonotaskTally::Dispatched(double queue_wait) {
  ++totals_.dispatches;
  waits_.push_back(queue_wait);
}

void MonotaskTally::Finished(TraceEventKind kind, double service, bool counted) {
  switch (kind) {
    case TraceEventKind::kComplete:
      ++totals_.completes;
      break;
    case TraceEventKind::kFail:
      ++totals_.fails;
      break;
    case TraceEventKind::kLost:
      ++totals_.lost;
      break;
    case TraceEventKind::kCancelled:
      ++totals_.cancelled;
      break;
    default:
      LOG(Fatal) << "not a monotask finish: " << TraceEventKindName(kind);
  }
  services_.push_back(service);
  if (counted) {
    totals_.busy_time += service;
    if (kind == TraceEventKind::kCancelled) {
      totals_.wasted_time += service;
    }
  }
}

Tracer::ResourceSummary MonotaskTally::Result() const {
  Tracer::ResourceSummary out = totals_;
  out.queue_wait = Summarize(waits_);
  out.service = Summarize(services_);
  return out;
}

void Tracer::PrintSummary(const std::string& title) const {
  const auto summaries = SummarizeMonotasks();
  Table counts({"resource", "queued", "dispatched", "completed", "failed", "lost",
                "cancelled", "busy(s)", "wasted(s)"});
  Table latencies({"resource", "qwait-mean(ms)", "qwait-p50", "qwait-p95", "qwait-p99",
                   "svc-mean(ms)", "svc-p50", "svc-p95", "svc-p99"});
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    const ResourceSummary& rs = summaries[static_cast<size_t>(r)];
    const char* name = ResourceTypeName(static_cast<ResourceType>(r));
    counts.Row()
        .Cell(name)
        .Cell(rs.queued)
        .Cell(rs.dispatches)
        .Cell(rs.completes)
        .Cell(rs.fails)
        .Cell(rs.lost)
        .Cell(rs.cancelled)
        .Cell(rs.busy_time, 2)
        .Cell(rs.wasted_time, 2);
    latencies.Row()
        .Cell(name)
        .Cell(rs.queue_wait.mean * 1e3, 3)
        .Cell(rs.queue_wait.p50 * 1e3, 3)
        .Cell(rs.queue_wait.p95 * 1e3, 3)
        .Cell(rs.queue_wait.p99 * 1e3, 3)
        .Cell(rs.service.mean * 1e3, 3)
        .Cell(rs.service.p50 * 1e3, 3)
        .Cell(rs.service.p95 * 1e3, 3)
        .Cell(rs.service.p99 * 1e3, 3);
  }
  counts.Print(title + " - monotask counts");
  latencies.Print(title + " - monotask latencies");
  if (ticks_.ticks > 0) {
    Table ticks({"ticks", "candidates", "placed"});
    ticks.Row().Cell(ticks_.ticks).Cell(ticks_.candidates).Cell(ticks_.placed);
    ticks.Print(title + " - scheduler ticks");
  }
  if (dropped_ > 0) {
    std::printf("note: ring capacity exceeded, %" PRIu64
                " oldest events dropped (raise trace capacity)\n",
                dropped_);
  }
  if (config_.sample > 1) {
    std::printf("note: monotask sampling 1/%d; counts and busy(s) cover the sample only\n",
                config_.sample);
  }
}

}  // namespace ursa
