// Explicit scheduler<->worker message layer with a seeded control-plane
// fault model (DESIGN.md section 14).
//
// Every dispatch and every report between a job manager and a worker takes
// this one route. When disabled (the default) each send is a synchronous
// pass-through: the message is handed over by a direct call, with no
// simulator events and no RNG draws. When enabled, dispatches,
// completions/failures and heartbeats become simulator-delivered messages
// with per-message latency, and the fault model can drop, duplicate or
// delay each one. Correctness under faults rests on four mechanisms:
//   * acks + capped-backoff retransmission for dispatches and completions
//     (heartbeats are intentionally best-effort);
//   * idempotent delivery: workers dedup dispatches by
//     (job, incarnation, monotask, generation, attempt, channel), and the
//     scheduler-side handlers dedup completions/failures by monotask
//     done-flag / attempt;
//   * identity routing: a report carries its dispatch's MsgKey and nothing
//     else, so no closure held by a worker or by this layer points into a
//     job manager. The scheduler routes each report to the job manager
//     incarnation that owns the job (or fences it), and the key's channel
//     picks the execution there: 0 is the primary, any other channel a
//     speculative copy;
//   * epoch fencing: a scheduler crash bumps the epoch, and any dispatch
//     minted under an older epoch is discarded at delivery, so a stale
//     message can never double-charge a worker's concurrency slot or resurrect
//     a cancelled copy.
#ifndef SRC_CTRL_CONTROL_PLANE_H_
#define SRC_CTRL_CONTROL_PLANE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/dag/types.h"
#include "src/exec/monotask_queue.h"

namespace ursa {

class Cluster;
struct FaultCounters;
class Simulator;
class Tracer;

struct ControlPlaneConfig {
  // Off by default: synchronous pass-through, zero events, zero RNG draws.
  bool enabled = false;
  uint64_t seed = 1;
  // Per-message one-way latency: base + Uniform[0, kJitter).
  double base_latency = 0.0005;
  // Fault model, applied per message send.
  double loss_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  double delay_extra = 0.05;  // Added latency when the delay fault fires.
  // Scheduler checkpoint/journal cadence; 0 disables journaling entirely
  // (a scheduler crash then degrades to full restarts of all live jobs).
  double checkpoint_interval = 0.0;
};

// Identity of one dispatch message. `generation` and `attempt` make keys
// unique per execution attempt; `channel` separates the primary execution
// (0) from speculative copies (each its run-wide launch number, from 1).
struct MsgKey {
  JobId job = kInvalidId;
  // Distinguishes executions of the same monotask across full job restarts:
  // a restart resets generations and attempts to zero, so without the
  // incarnation a fresh dispatch would collide with the worker's delivered
  // record of the pre-restart execution and be suppressed as a duplicate.
  int incarnation = 0;
  MonotaskId monotask = kInvalidId;
  int generation = 0;
  int attempt = 0;
  int channel = 0;
};

class ControlPlane {
 public:
  // A worker->scheduler completion/failure report of one dispatch, for a
  // primary and a speculative copy alike. Identity-addressed so it can be
  // routed to whichever job-manager incarnation currently owns the job (or
  // fenced if none does).
  struct CompletionMsg {
    MsgKey key;  // The reported dispatch; its channel picks the execution.
    bool failed = false;
    WorkerId worker = kInvalidId;
  };

  ControlPlane(Simulator* sim, Cluster* cluster, const ControlPlaneConfig& config,
               FaultCounters* stats);

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  // Reliable scheduler-bound deliveries retry while this returns true.
  void set_down_check(std::function<bool()> down) { down_check_ = std::move(down); }
  void set_completion_handler(std::function<void(const CompletionMsg&)> handler) {
    completion_handler_ = std::move(handler);
  }

  const ControlPlaneConfig& config() const { return config_; }
  int epoch() const { return epoch_; }
  // Fences every dispatch minted under an older epoch (scheduler crash).
  void BumpEpoch() { ++epoch_; }

  // Scheduler -> worker dispatch. Reliable: retransmitted with capped
  // backoff until the worker acks (delivery) or the message is fenced.
  void Dispatch(WorkerId worker, const MsgKey& key, RunnableMonotask run);

  // Worker -> scheduler completion/failure report. Reliable: a report that
  // arrives while the scheduler is down is retried until a live scheduler
  // accepts it, so orphaned monotasks re-attach after recovery.
  void CompletionToScheduler(const CompletionMsg& msg);

  // Worker -> scheduler heartbeat: best-effort, never retransmitted. Lost
  // or late heartbeats are exactly the signal the failure detector consumes.
  void Heartbeat(WorkerId worker, std::function<void()> deliver);

  // True when the worker has acked the dispatch with this key; used by the
  // post-recovery resync pass to decide which placements to re-send.
  bool Delivered(WorkerId worker, const MsgKey& key) const;

  // Drops a finished job's dedup table, on every worker at once.
  void ForgetJob(JobId job);

  // Drops one worker's delivered-dispatch records. Called when the worker
  // fails: the records are worker-side state, so a crash wipes them along
  // with the queues, and resync after a scheduler recovery must be able to
  // re-send (and the rejoined worker to re-accept) dispatches the dead
  // process had acked.
  void ForgetWorker(WorkerId worker);

 private:
  struct PendingDispatch {
    WorkerId worker = kInvalidId;
    MsgKey key;
    int epoch = 0;
    RunnableMonotask run;
    bool delivered = false;
    bool fenced = false;
  };
  // One delivered dispatch: the worker that acked it plus the rest of its
  // MsgKey (the job and monotask are the table's indices).
  struct Delivery {
    WorkerId worker = kInvalidId;
    int incarnation = 0;
    int generation = 0;
    int attempt = 0;
    int channel = 0;
  };
  // The records of `key`'s monotask, growing the table to hold it.
  std::vector<Delivery>& DeliveriesOf(const MsgKey& key);
  static bool Matches(const Delivery& d, WorkerId worker, const MsgKey& key) {
    return d.worker == worker && d.incarnation == key.incarnation &&
           d.generation == key.generation && d.attempt == key.attempt &&
           d.channel == key.channel;
  }

  struct PendingReport {
    CompletionMsg msg;
    bool delivered = false;
  };

  // Draws the per-send fate from the seeded stream: latency (with jitter and
  // the delay fault folded in), loss and duplication.
  struct Fate {
    bool lost = false;
    bool dup = false;
    double latency = 0.0;
    double dup_latency = 0.0;
  };
  Fate DrawFate();

  void SendDispatch(const std::shared_ptr<PendingDispatch>& p, double timeout);
  void DeliverDispatch(const std::shared_ptr<PendingDispatch>& p);
  void SendReport(const std::shared_ptr<PendingReport>& p, double timeout);
  void DeliverReport(const std::shared_ptr<PendingReport>& p);

  Simulator* sim_;
  Cluster* cluster_;
  ControlPlaneConfig config_;
  FaultCounters* stats_;
  Tracer* tracer_ = nullptr;
  std::function<bool()> down_check_;
  std::function<void(const CompletionMsg&)> completion_handler_;
  Rng rng_;
  int epoch_ = 0;
  // Delivered-dispatch records, indexed [job][monotask]: the dedup state of
  // every worker, kept per job so a finished job frees its table in one
  // step. Worker-side state: it survives a scheduler crash, which is what
  // makes resync able to skip live orphans.
  std::vector<std::vector<std::vector<Delivery>>> delivered_;
};

}  // namespace ursa

#endif  // SRC_CTRL_CONTROL_PLANE_H_
