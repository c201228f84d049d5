#include "src/ctrl/control_plane.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/exec/cluster.h"
#include "src/exec/worker.h"
#include "src/fault/fault_stats.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace ursa {

namespace {

// Per-message one-way latency: kBaseLatency + Uniform[0, kJitter).
constexpr double kBaseLatency = 0.0005;
constexpr double kJitter = 0.0005;
// Added latency when the delay fault fires.
constexpr double kDelayExtra = 0.05;
// Retransmission timer for the reliable channels: the first ack timeout,
// doubled per retransmission up to the cap.
constexpr double kAckTimeout = 0.05;
constexpr double kAckTimeoutCap = 1.0;
static_assert(kAckTimeout > 0.0 && kAckTimeoutCap >= kAckTimeout,
              "the ack timeout must be positive and below its cap");

}  // namespace

ControlPlane::ControlPlane(Simulator* sim, Cluster* cluster,
                           const ControlPlaneConfig& config, FaultCounters* stats)
    : sim_(sim), cluster_(cluster), config_(config), stats_(stats), rng_(config.seed) {
  CHECK(config_.loss_prob >= 0.0 && config_.loss_prob < 1.0)
      << "loss_prob must be in [0, 1): a channel that drops everything never "
         "delivers and the retransmission loop cannot terminate";
  CHECK(config_.dup_prob >= 0.0 && config_.dup_prob <= 1.0);
  CHECK(config_.delay_prob >= 0.0 && config_.delay_prob <= 1.0);
  for (int w = 0; w < cluster_->size(); ++w) {
    Worker& worker = cluster_->worker(w);
    worker.set_report_listener([this](const CompletionMsg& msg) { CompletionToScheduler(msg); });
    if (config_.enabled) {
      // A failing worker loses its delivered-dispatch records with the rest
      // of its state, whoever injected the failure and whether or not the
      // scheduler is up. A pass-through plane keeps no records.
      worker.set_fail_listener([this](WorkerId id) { ForgetWorker(id); });
    }
  }
}

ControlPlane::~ControlPlane() {
  for (int w = 0; w < cluster_->size(); ++w) {
    cluster_->worker(w).set_report_listener(nullptr);
    cluster_->worker(w).set_fail_listener(nullptr);
  }
}

ControlPlane::Fate ControlPlane::DrawFate() {
  Fate fate;
  if (stats_ != nullptr) {
    ++stats_->msgs_sent;
  }
  fate.lost = config_.loss_prob > 0.0 && rng_.Bernoulli(config_.loss_prob);
  if (fate.lost) {
    if (stats_ != nullptr) {
      ++stats_->msgs_lost;
    }
    return fate;
  }
  auto latency = [this] {
    double l = kBaseLatency + rng_.Uniform(0.0, kJitter);
    if (config_.delay_prob > 0.0 && rng_.Bernoulli(config_.delay_prob)) {
      if (stats_ != nullptr) {
        ++stats_->msgs_delayed;
      }
      l += kDelayExtra;
    }
    return l;
  };
  fate.latency = latency();
  fate.dup = config_.dup_prob > 0.0 && rng_.Bernoulli(config_.dup_prob);
  if (fate.dup) {
    if (stats_ != nullptr) {
      ++stats_->msgs_duplicated;
    }
    fate.dup_latency = latency();
  }
  return fate;
}

void ControlPlane::Dispatch(WorkerId worker, RunnableMonotask run) {
  if (!config_.enabled) {
    cluster_->worker(worker).Submit(std::move(run));
    return;
  }
  auto p = std::make_shared<PendingDispatch>();
  p->worker = worker;
  p->epoch = epoch_;
  p->run = std::move(run);
  SendDispatch(p, kAckTimeout);
}

void ControlPlane::SendDispatch(const std::shared_ptr<PendingDispatch>& p,
                                double timeout) {
  const Fate fate = DrawFate();
  if (fate.lost) {
    if (tracer_ != nullptr) {
      tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgDrop, p->worker);
    }
  } else {
    sim_->Schedule(fate.latency, [this, p] { DeliverDispatch(p); });
    if (fate.dup) {
      if (tracer_ != nullptr) {
        tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgDup, p->worker);
      }
      sim_->Schedule(fate.dup_latency, [this, p] { DeliverDispatch(p); });
    }
  }
  // Ack timer: retransmit with capped exponential backoff until the worker
  // acked the delivery or the message was fenced by an epoch bump.
  sim_->Schedule(timeout, [this, p, timeout] {
    if (p->delivered || p->fenced) {
      return;
    }
    if (p->epoch != epoch_) {
      p->fenced = true;
      if (stats_ != nullptr) {
        ++stats_->msgs_fenced;
      }
      return;
    }
    if (stats_ != nullptr) {
      ++stats_->retransmits;
    }
    SendDispatch(p, std::min(kAckTimeoutCap, timeout * 2.0));
  });
}

void ControlPlane::DeliverDispatch(const std::shared_ptr<PendingDispatch>& p) {
  if (p->epoch != epoch_) {
    // Minted under a dead scheduler incarnation: the resync protocol owns
    // this placement now. Never submit, never ack.
    if (!p->fenced) {
      p->fenced = true;
      if (stats_ != nullptr) {
        ++stats_->msgs_fenced;
      }
      if (tracer_ != nullptr) {
        tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgFenced, p->worker);
      }
    }
    return;
  }
  if (p->delivered) {
    // A duplicate or late retransmission of an already-acked message.
    if (stats_ != nullptr) {
      ++stats_->dup_suppressed;
    }
    return;
  }
  p->delivered = true;
  const MsgKey& key = p->run.key;
  std::vector<Delivery>& seen = DeliveriesOf(key);
  for (const Delivery& d : seen) {
    if (Matches(d, p->worker, key)) {
      // The same execution attempt was already delivered (e.g. the original
      // send of a placement the recovery resync re-dispatched).
      if (stats_ != nullptr) {
        ++stats_->dup_suppressed;
      }
      return;
    }
  }
  seen.push_back(
      Delivery{p->worker, key.incarnation, key.generation, key.attempt, key.channel});
  // `delivered` is set, so no later copy of this message reads `run` again.
  cluster_->worker(p->worker).Submit(std::move(p->run));
}

void ControlPlane::CompletionToScheduler(const CompletionMsg& msg) {
  CHECK(completion_handler_);
  if (!config_.enabled) {
    completion_handler_(msg);
    return;
  }
  auto p = std::make_shared<PendingReport>();
  p->msg = msg;
  SendReport(p, kAckTimeout);
}

void ControlPlane::SendReport(const std::shared_ptr<PendingReport>& p, double timeout) {
  const Fate fate = DrawFate();
  if (fate.lost) {
    if (tracer_ != nullptr) {
      tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgDrop, p->msg.worker);
    }
  } else {
    sim_->Schedule(fate.latency, [this, p] { DeliverReport(p); });
    if (fate.dup) {
      if (tracer_ != nullptr) {
        tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgDup, p->msg.worker);
      }
      // Duplicate deliveries reach the handler twice on purpose: endpoint
      // idempotence (done-flag / attempt dedup) is what absorbs them.
      sim_->Schedule(fate.dup_latency, [this, p] { DeliverReport(p); });
    }
  }
  sim_->Schedule(timeout, [this, p, timeout] {
    if (p->delivered) {
      return;
    }
    if (stats_ != nullptr) {
      ++stats_->retransmits;
    }
    SendReport(p, std::min(kAckTimeoutCap, timeout * 2.0));
  });
}

void ControlPlane::DeliverReport(const std::shared_ptr<PendingReport>& p) {
  if (down_check_ && down_check_()) {
    // The scheduler is down: no ack, the sender keeps retransmitting and the
    // report re-attaches to whatever incarnation recovers.
    return;
  }
  p->delivered = true;
  completion_handler_(p->msg);
}

void ControlPlane::Heartbeat(WorkerId worker, std::function<void()> deliver) {
  if (!config_.enabled) {
    deliver();
    return;
  }
  const Fate fate = DrawFate();
  if (fate.lost) {
    if (tracer_ != nullptr) {
      tracer_->WorkerEvent(sim_->Now(), TraceEventKind::kMsgDrop, worker);
    }
    return;  // Best-effort: a lost heartbeat is simply silence.
  }
  sim_->Schedule(fate.latency, [this, deliver = std::move(deliver)] {
    if (down_check_ && down_check_()) {
      return;  // A dead scheduler hears nothing.
    }
    deliver();
  });
  // The duplicate fate is deliberately ignored for heartbeats: a duplicated
  // "I am alive" carries no additional information.
}

std::vector<ControlPlane::Delivery>& ControlPlane::DeliveriesOf(const MsgKey& key) {
  CHECK_GE(key.job, 0);
  CHECK_GE(key.monotask, 0);
  const size_t job = static_cast<size_t>(key.job);
  const size_t m = static_cast<size_t>(key.monotask);
  if (job >= delivered_.size()) {
    delivered_.resize(job + 1);
  }
  std::vector<std::vector<Delivery>>& table = delivered_[job];
  if (m >= table.size()) {
    table.resize(m + 1);
  }
  return table[m];
}

bool ControlPlane::Delivered(WorkerId worker, const MsgKey& key) const {
  const size_t job = static_cast<size_t>(key.job);
  const size_t m = static_cast<size_t>(key.monotask);
  if (job >= delivered_.size() || m >= delivered_[job].size()) {
    return false;
  }
  const std::vector<Delivery>& seen = delivered_[job][m];
  return std::any_of(seen.begin(), seen.end(),
                     [&](const Delivery& d) { return Matches(d, worker, key); });
}

void ControlPlane::ForgetWorker(WorkerId worker) {
  for (std::vector<std::vector<Delivery>>& table : delivered_) {
    for (std::vector<Delivery>& seen : table) {
      seen.erase(std::remove_if(seen.begin(), seen.end(),
                                [worker](const Delivery& d) { return d.worker == worker; }),
                 seen.end());
    }
  }
}

void ControlPlane::ForgetJob(JobId job) {
  if (static_cast<size_t>(job) < delivered_.size()) {
    std::vector<std::vector<Delivery>>().swap(delivered_[static_cast<size_t>(job)]);
  }
}

}  // namespace ursa
