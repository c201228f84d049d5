// Heartbeat-based worker failure detection (section 4.3).
//
// The detector owns the heartbeat chains: one per worker, firing every
// heartbeat_interval, that sends a beat (through the transport, when set)
// whenever the worker is alive. Every chain re-arms with the same delay, so
// all beats ride one FixedDelayLane (src/sim/event_queue.h) instead of the
// event heap: a beat allocates nothing and costs no heap sift, and it fires
// at the same instant and in the same order as a heap event would. The
// detector sweeps the cluster and declares a worker dead once it has been
// silent for longer than detect_timeout. A heartbeat arriving from a
// declared-dead worker means the machine came back: the detector
// un-declares it and fires the rejoin callback so the scheduler can
// re-admit it to placement.
//
// Heartbeat and sweep chains are gated on an activity predicate (typically
// "the scheduler has active or waiting jobs") so the event queue can drain
// and Simulator::Run() terminates once the workload finishes.
#ifndef SRC_FAULT_FAILURE_DETECTOR_H_
#define SRC_FAULT_FAILURE_DETECTOR_H_

#include <functional>
#include <vector>

#include "src/exec/cluster.h"
#include "src/sim/simulator.h"

namespace ursa {

struct FailureDetectorConfig {
  // Seconds between heartbeats of a live worker.
  double heartbeat_interval = 0.5;
  // A worker silent for longer than this is declared dead.
  double detect_timeout = 2.0;
};

// Fault-tolerance policy knobs shared by the scheduler and job managers.
struct FaultToleranceConfig {
  // The scheduler detects worker deaths from missed heartbeats; an external
  // FailWorker() call only reports them sooner.
  FailureDetectorConfig detector;
  // When true, a worker failure triggers stage-level lineage recovery (only
  // the lost tasks and their invalidated dependents re-execute). When false,
  // every affected job restarts from its input checkpoint.
  bool enable_lineage_recovery = true;
  // Transient monotask failures: attempts on the same worker before the task
  // is re-placed on a different worker.
  int max_monotask_attempts = 3;
};

class FailureDetector {
 public:
  // `silence` is how long the worker had been silent when declared.
  using DeathCallback = std::function<void(WorkerId worker, double silence)>;
  using RejoinCallback = std::function<void(WorkerId worker)>;

  // `active` is the activity predicate that gates every chain.
  FailureDetector(Simulator* sim, Cluster* cluster, const FailureDetectorConfig& config,
                  std::function<bool()> active);

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  void set_on_death(DeathCallback cb) { on_death_ = std::move(cb); }
  void set_on_rejoin(RejoinCallback cb) { on_rejoin_ = std::move(cb); }

  // Routes each heartbeat delivery through a transport hook (e.g. the lossy
  // control-plane message layer). The hook receives the sender and a closure
  // that performs the actual delivery; dropping the closure drops the beat.
  using Transport = std::function<void(WorkerId, std::function<void()>)>;
  void set_transport(Transport transport) { transport_ = std::move(transport); }

  // Re-seeds liveness state after a scheduler crash: a restarted scheduler
  // has no heartbeat history, so silence is measured from `now`. Workers the
  // caller knows to be down (and re-handles itself at recovery) stay
  // declared-dead so their comeback heartbeat still fires the rejoin hook.
  void Reset(double now);

  // Starts the heartbeat and sweep chains that are not already running.
  // Each stops once the activity predicate returns false; calling Activate
  // again restarts them (with a fresh grace period so idle gaps do not cause
  // false positives).
  void Activate();

  bool declared_dead(WorkerId w) const { return dead_[static_cast<size_t>(w)]; }
  int detections() const { return detections_; }

 private:
  // Arms the next link of worker `w`'s heartbeat chain on the lane.
  void ScheduleBeat(WorkerId w);
  // One link: the lane handler.
  void Beat(WorkerId w);
  void OnHeartbeat(WorkerId w);
  void ScheduleSweep();
  void Sweep();

  Simulator* sim_;
  Cluster* cluster_;
  FailureDetectorConfig config_;
  DeathCallback on_death_;
  RejoinCallback on_rejoin_;
  Transport transport_;

  std::function<bool()> active_;
  std::vector<double> last_heartbeat_;
  std::vector<bool> dead_;
  std::vector<bool> beating_;  // Worker's heartbeat chain is scheduled.
  bool running_ = false;       // The sweep chain is scheduled.
  int detections_ = 0;
  // Last, so it is destroyed first: a dead detector's beats never fire.
  FixedDelayLane beats_;
};

}  // namespace ursa

#endif  // SRC_FAULT_FAILURE_DETECTOR_H_
