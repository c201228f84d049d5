#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace ursa {

FaultPlan MakeRandomFaultPlan(const FaultPlanConfig& config) {
  // Reject malformed plans up front instead of producing a quietly-empty or
  // crash-prone event list (events drawn from an inverted horizon would all
  // land at the same instant; negative counts would silently inject nothing).
  CHECK_GT(config.num_workers, 0);
  CHECK_GE(config.horizon_start, 0.0);
  CHECK_GT(config.horizon_end, config.horizon_start)
      << "fault horizon is empty or inverted";
  CHECK_GE(config.crashes, 0);
  CHECK_GE(config.crash_recovers, 0);
  CHECK_GE(config.transients, 0);
  CHECK_GE(config.degrades, 0);
  CHECK_GE(config.sched_crashes, 0);
  CHECK_GE(config.sched_crash_recovers, 0);
  CHECK_GE(config.transient_count, 0);
  CHECK_GE(config.min_downtime, 0.0);
  CHECK_GE(config.max_downtime, config.min_downtime);
  CHECK_GE(config.min_sched_downtime, 0.0);
  CHECK_GE(config.max_sched_downtime, config.min_sched_downtime);
  CHECK_GE(config.degrade_duration, 0.0);
  CHECK_GT(config.degrade_factor, 0.0);
  CHECK_LE(config.degrade_factor, 1.0);
  FaultPlan plan;
  Rng rng(config.seed);
  auto draw_time = [&] { return rng.Uniform(config.horizon_start, config.horizon_end); };

  // Permanent crashes hit distinct workers and never a majority of the
  // cluster, so at least one worker survives to carry the workload.
  const int max_crashes = std::max(0, (config.num_workers - 1) / 2);
  const int crashes = std::min(config.crashes, max_crashes);
  if (crashes < config.crashes) {
    LOG(Warning) << "fault plan capped crashes at " << crashes << " of "
                 << config.num_workers << " workers";
  }
  std::vector<bool> crashed(static_cast<size_t>(config.num_workers), false);
  for (int i = 0; i < crashes; ++i) {
    WorkerId w;
    do {
      w = static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(config.num_workers)));
    } while (crashed[static_cast<size_t>(w)]);
    crashed[static_cast<size_t>(w)] = true;
    FaultEvent event;
    event.kind = FaultKind::kCrash;
    event.time = draw_time();
    event.worker = w;
    plan.events.push_back(event);
  }
  for (int i = 0; i < config.crash_recovers; ++i) {
    WorkerId w;
    do {
      w = static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(config.num_workers)));
    } while (crashed[static_cast<size_t>(w)]);
    FaultEvent event;
    event.kind = FaultKind::kCrashRecover;
    event.time = draw_time();
    event.worker = w;
    event.downtime = rng.Uniform(config.min_downtime, config.max_downtime);
    plan.events.push_back(event);
  }
  for (int i = 0; i < config.transients; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kTransient;
    event.time = draw_time();
    event.worker =
        static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(config.num_workers)));
    event.count = config.transient_count;
    plan.events.push_back(event);
  }
  for (int i = 0; i < config.degrades; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kDegrade;
    event.time = draw_time();
    event.worker =
        static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(config.num_workers)));
    event.duration = config.degrade_duration;
    event.factor = config.degrade_factor;
    plan.events.push_back(event);
  }
  for (int i = 0; i < config.sched_crashes; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kSchedulerCrash;
    event.time = draw_time();
    plan.events.push_back(event);
  }
  for (int i = 0; i < config.sched_crash_recovers; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kSchedulerCrashRecover;
    event.time = draw_time();
    event.downtime = rng.Uniform(config.min_sched_downtime, config.max_sched_downtime);
    plan.events.push_back(event);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  return plan;
}

FaultInjector::FaultInjector(Simulator* sim, Cluster* cluster, FaultPlan plan,
                             FaultCounters* stats)
    : sim_(sim), cluster_(cluster), plan_(std::move(plan)), stats_(stats) {}

void FaultInjector::Arm() {
  CHECK(!armed_) << "fault plan already armed";
  armed_ = true;
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::kSchedulerCrash ||
        event.kind == FaultKind::kSchedulerCrashRecover) {
      CHECK(scheduler_crash_handler_)
          << "fault plan injects scheduler crashes but no handler is set";
    } else {
      CHECK_GE(event.worker, 0);
      CHECK_LT(event.worker, cluster_->size());
    }
    sim_->ScheduleAt(event.time, [this, event] { Apply(event); });
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  if (event.kind == FaultKind::kSchedulerCrash ||
      event.kind == FaultKind::kSchedulerCrashRecover) {
    // Control-plane fault: no worker involved. The scheduler records its own
    // crash/recovery counters.
    scheduler_crash_handler_(
        event.kind == FaultKind::kSchedulerCrash ? 0.0 : event.downtime);
    return;
  }
  Worker& worker = cluster_->worker(event.worker);
  switch (event.kind) {
    case FaultKind::kCrash:
      if (worker.failed()) {
        return;  // Already down; crashing twice is a no-op.
      }
      worker.Fail();
      if (stats_ != nullptr) {
        ++stats_->crashes_injected;
      }
      break;
    case FaultKind::kCrashRecover:
      if (worker.failed()) {
        return;
      }
      worker.Fail();
      if (stats_ != nullptr) {
        ++stats_->crashes_injected;
      }
      sim_->Schedule(event.downtime, [this, w = event.worker] {
        cluster_->worker(w).Recover();
        if (stats_ != nullptr) {
          ++stats_->recoveries_injected;
        }
      });
      break;
    case FaultKind::kTransient:
      worker.InjectTransientFailures(event.count);
      if (stats_ != nullptr) {
        stats_->transients_injected += event.count;
      }
      break;
    case FaultKind::kDegrade: {
      CHECK_GT(event.factor, 0.0);
      worker.set_speed_factor(event.factor);
      if (stats_ != nullptr) {
        ++stats_->degrades_injected;
      }
      sim_->Schedule(event.duration, [this, w = event.worker] {
        cluster_->worker(w).set_speed_factor(1.0);
      });
      break;
    }
    case FaultKind::kSchedulerCrash:
    case FaultKind::kSchedulerCrashRecover:
      break;  // Dispatched to the scheduler crash handler above.
  }
}

}  // namespace ursa
