// Chaos fault-injection harness.
//
// A FaultPlan is a list of timed fault events — worker crashes, crash +
// recover cycles, transient monotask failures and degraded-rate (straggler)
// windows. Plans are either constructed explicitly or generated from a seed
// with MakeRandomFaultPlan, so chaos experiments are fully reproducible. The
// FaultInjector arms every event on the simulator; the failure detector and
// the recovery machinery then react with no further help from the injector.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/exec/cluster.h"
#include "src/fault/fault_stats.h"
#include "src/sim/simulator.h"

namespace ursa {

enum class FaultKind : int {
  kCrash = 0,         // Worker dies and stays dead.
  kCrashRecover = 1,  // Worker dies, rejoins after `downtime` seconds.
  kTransient = 2,     // Next `count` monotasks completing on the worker fail.
  kDegrade = 3,       // Worker runs at `factor` speed for `duration` seconds.
  // Control-plane faults (DESIGN.md section 14). `worker` is ignored; the
  // scheduler loses its live state and recovers from checkpoint + journal
  // (or full restarts every job when journaling is off).
  kSchedulerCrash = 4,         // Fast failover: recovery starts immediately.
  kSchedulerCrashRecover = 5,  // Scheduler stays down `downtime` seconds first.
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  double time = 0.0;
  WorkerId worker = kInvalidId;
  double downtime = 0.0;   // kCrashRecover.
  int count = 1;           // kTransient.
  double duration = 0.0;   // kDegrade.
  double factor = 1.0;     // kDegrade speed factor in (0, 1].
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  bool empty() const { return events.empty(); }
};

struct FaultPlanConfig {
  uint64_t seed = 1;
  int num_workers = 20;
  // Events are drawn uniformly in [horizon_start, horizon_end).
  double horizon_start = 5.0;
  double horizon_end = 100.0;
  int crashes = 0;
  int crash_recovers = 0;
  int transients = 0;
  int degrades = 0;
  double min_downtime = 5.0;
  double max_downtime = 30.0;
  int transient_count = 1;      // Monotask failures injected per transient event.
  double degrade_factor = 0.5;  // Speed multiplier during a degrade window.
  double degrade_duration = 10.0;
  // Control-plane faults: scheduler crashes with immediate failover and
  // crashes that keep the scheduler down for a drawn downtime.
  int sched_crashes = 0;
  int sched_crash_recovers = 0;
  double min_sched_downtime = 2.0;
  double max_sched_downtime = 10.0;
};

// Deterministic random plan. Permanently-crashed workers are distinct and
// capped below half the cluster so the workload always remains schedulable.
// CHECK-fails on malformed configs: an empty or inverted horizon, negative
// event counts or downtimes, or a degrade factor outside (0, 1].
FaultPlan MakeRandomFaultPlan(const FaultPlanConfig& config);

class FaultInjector {
 public:
  // `stats` may be null; when set, injected events are counted there.
  FaultInjector(Simulator* sim, Cluster* cluster, FaultPlan plan, FaultCounters* stats);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event of the plan on the simulator. The injector must
  // outlive the simulation run. A plan containing scheduler-crash events
  // requires a scheduler crash handler.
  void Arm();

  // Receives `downtime` for each kSchedulerCrash{Recover} event; typically
  // bound to UrsaScheduler::InjectSchedulerCrash.
  void set_scheduler_crash_handler(std::function<void(double)> handler) {
    scheduler_crash_handler_ = std::move(handler);
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  void Apply(const FaultEvent& event);

  Simulator* sim_;
  Cluster* cluster_;
  FaultPlan plan_;
  FaultCounters* stats_;
  std::function<void(double)> scheduler_crash_handler_;
  bool armed_ = false;
};

}  // namespace ursa

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
