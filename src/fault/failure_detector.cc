#include "src/fault/failure_detector.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa {

FailureDetector::FailureDetector(Simulator* sim, Cluster* cluster,
                                 const FailureDetectorConfig& config,
                                 std::function<bool()> active)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      active_(std::move(active)),
      beats_(sim, config.heartbeat_interval,
             [this](int32_t w) { Beat(static_cast<WorkerId>(w)); }) {
  CHECK_GT(config_.heartbeat_interval, 0.0);
  CHECK_GT(config_.detect_timeout, config_.heartbeat_interval)
      << "detect_timeout must cover at least one missed heartbeat";
  CHECK(active_ != nullptr);
  const size_t n = static_cast<size_t>(cluster_->size());
  last_heartbeat_.resize(n, 0.0);
  dead_.resize(n, false);
  beating_.resize(n, false);
}

void FailureDetector::Activate() {
  if (running_) {
    return;
  }
  running_ = true;
  const double now = sim_->Now();
  for (int w = 0; w < cluster_->size(); ++w) {
    const size_t i = static_cast<size_t>(w);
    // Grace period: a silent gap while the detector was idle is not evidence
    // of failure.
    last_heartbeat_[i] = now;
    if (!beating_[i]) {
      beating_[i] = true;
      ScheduleBeat(static_cast<WorkerId>(w));
    }
  }
  ScheduleSweep();
}

void FailureDetector::ScheduleBeat(WorkerId w) { beats_.Arm(w); }

void FailureDetector::Beat(WorkerId w) {
  if (!active_()) {
    beating_[static_cast<size_t>(w)] = false;  // Let the simulator drain.
    return;
  }
  if (!cluster_->worker(w).failed()) {
    if (transport_) {
      // Route the beat through the control-plane transport; a dropped
      // closure is a lost beat.
      transport_(w, [this, w] { OnHeartbeat(w); });
    } else {
      OnHeartbeat(w);
    }
  }
  ScheduleBeat(w);
}

void FailureDetector::Reset(double now) {
  std::fill(last_heartbeat_.begin(), last_heartbeat_.end(), now);
  for (int w = 0; w < cluster_->size(); ++w) {
    // Workers that are down stay declared-dead (the recovering scheduler
    // re-handles them immediately), so their comeback heartbeat still fires
    // the rejoin callback. Live workers restart from a clean slate.
    dead_[static_cast<size_t>(w)] = cluster_->worker(static_cast<WorkerId>(w)).failed();
  }
}

void FailureDetector::OnHeartbeat(WorkerId w) {
  last_heartbeat_[static_cast<size_t>(w)] = sim_->Now();
  if (dead_[static_cast<size_t>(w)]) {
    // The worker came back after a downtime: re-register it.
    dead_[static_cast<size_t>(w)] = false;
    if (on_rejoin_) {
      on_rejoin_(w);
    }
  }
}

void FailureDetector::ScheduleSweep() {
  // Sweep at least twice per timeout so detection latency stays within
  // detect_timeout + sweep_interval.
  const double sweep = std::min(config_.heartbeat_interval, config_.detect_timeout / 2.0);
  sim_->Schedule(sweep, [this] {
    if (!active_()) {
      running_ = false;
      return;
    }
    Sweep();
    ScheduleSweep();
  });
}

void FailureDetector::Sweep() {
  const double now = sim_->Now();
  for (int w = 0; w < cluster_->size(); ++w) {
    const size_t i = static_cast<size_t>(w);
    if (dead_[i]) {
      continue;
    }
    const double silence = now - last_heartbeat_[i];
    if (silence > config_.detect_timeout) {
      dead_[i] = true;
      ++detections_;
      if (on_death_) {
        on_death_(static_cast<WorkerId>(w), silence);
      }
    }
  }
}

}  // namespace ursa
