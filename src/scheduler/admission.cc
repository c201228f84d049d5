#include "src/scheduler/admission.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa {

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNewest:
      return "reject-newest";
    case ShedPolicy::kRejectLargestWork:
      return "reject-largest-work";
    case ShedPolicy::kPriorityTier:
      return "priority-tier";
  }
  return "?";
}

bool ParseShedPolicy(const std::string& name, ShedPolicy* out) {
  if (name == "newest") {
    *out = ShedPolicy::kRejectNewest;
  } else if (name == "largest") {
    *out = ShedPolicy::kRejectLargestWork;
  } else if (name == "tier") {
    *out = ShedPolicy::kPriorityTier;
  } else {
    return false;
  }
  return true;
}

const char* BackpressureLevelName(BackpressureLevel level) {
  switch (level) {
    case BackpressureLevel::kNone:
      return "none";
    case BackpressureLevel::kThrottle:
      return "throttle";
    case BackpressureLevel::kDegrade:
      return "degrade";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionConfig& config) : config_(config) {
  CHECK_GE(config_.max_pending, 1);
  CHECK_GT(config_.utilization_bound, 0.0);
  CHECK_GT(config_.default_slo, 0.0);
  CHECK_GE(config_.starvation_guard, 0);
  CHECK_GT(config_.max_throttle_factor, 0.0);
  CHECK_LE(config_.throttle_start, config_.degrade_start);
}

int AdmissionController::FindPending(JobId id) const {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].id == id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int AdmissionController::PickVictim(const PendingEntry& incoming) const {
  switch (config_.shed_policy) {
    case ShedPolicy::kRejectNewest:
      return -1;
    case ShedPolicy::kRejectLargestWork: {
      // Shed the largest expected work among pending and incoming; the
      // incoming job loses ties (evicting is strictly more disruptive).
      int victim = -1;
      double largest = incoming.expected_seconds;
      for (size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].expected_seconds > largest) {
          largest = pending_[i].expected_seconds;
          victim = static_cast<int>(i);
        }
      }
      return victim;
    }
    case ShedPolicy::kPriorityTier: {
      // Shed the lowest tier (largest tier number), newest first. Pending
      // jobs that survived `starvation_guard` shed rounds are protected, so
      // a steady high-tier stream cannot starve the low tiers forever.
      int victim = -1;
      int victim_tier = incoming.tier;
      double victim_submit = incoming.submit_time;
      for (size_t i = 0; i < pending_.size(); ++i) {
        const PendingEntry& e = pending_[i];
        if (e.shed_rounds_survived >= config_.starvation_guard) {
          continue;  // Protected.
        }
        if (e.tier > victim_tier ||
            (e.tier == victim_tier && e.submit_time > victim_submit)) {
          victim = static_cast<int>(i);
          victim_tier = e.tier;
          victim_submit = e.submit_time;
        }
      }
      return victim;
    }
  }
  return -1;
}

AdmissionController::Decision AdmissionController::OnSubmit(const JobInfo& info,
                                                            double now) {
  ++c_.submitted;
  PendingEntry entry;
  entry.id = info.id;
  entry.tier = info.tier;
  entry.expected_seconds = info.expected_seconds;
  const double slo = info.slo > 0.0 ? info.slo : config_.default_slo;
  entry.u = info.expected_seconds / slo;
  entry.submit_time = now;

  Decision decision;
  if (entry.u > config_.utilization_bound) {
    // Even an otherwise-empty cluster could not meet this job's SLO; reject
    // immediately rather than wasting queue space on it.
    ++c_.shed;
    ++c_.slo_rejects;
    decision.reason = "slo-unattainable";
    return decision;
  }
  if (static_cast<int>(pending_.size()) < config_.max_pending) {
    pending_.push_back(entry);
    ++c_.accepted;
    c_.pending_now = static_cast<int>(pending_.size());
    c_.max_pending_depth = std::max(c_.max_pending_depth, c_.pending_now);
    decision.accepted = true;
    return decision;
  }

  // Queue full: one job — chosen by the shed policy — must go.
  const int victim = PickVictim(entry);
  for (PendingEntry& e : pending_) {
    ++e.shed_rounds_survived;
  }
  if (victim < 0) {
    ++c_.shed;
    decision.reason = "queue-full";
    return decision;
  }
  decision.evicted = pending_[static_cast<size_t>(victim)].id;
  pending_.erase(pending_.begin() + victim);
  entry.shed_rounds_survived = 0;
  pending_.push_back(entry);
  ++c_.accepted;
  ++c_.shed;
  ++c_.evictions;
  c_.pending_now = static_cast<int>(pending_.size());
  decision.accepted = true;
  decision.reason = "evicted";
  return decision;
}

AdmissionController::Gate AdmissionController::GateActivation(JobId id, double now,
                                                              bool has_competing_work) {
  const int idx = FindPending(id);
  CHECK_GE(idx, 0) << "activation gate queried for a job not pending admission";
  const PendingEntry& entry = pending_[static_cast<size_t>(idx)];
  if (level_ >= BackpressureLevel::kDegrade && entry.tier > 0 && has_competing_work &&
      now - entry.submit_time < config_.defer_age_cap) {
    ++c_.deferrals;
    return Gate::kDeferTier;
  }
  if (active_u_ + entry.u > config_.utilization_bound) {
    return Gate::kBlockedUtilization;
  }
  return Gate::kAdmit;
}

void AdmissionController::OnActivated(JobId id, double now) {
  const int idx = FindPending(id);
  CHECK_GE(idx, 0) << "activated a job not pending admission";
  const PendingEntry entry = pending_[static_cast<size_t>(idx)];
  pending_.erase(pending_.begin() + idx);
  active_.push_back(ActiveEntry{entry.id, entry.u});
  active_u_ += entry.u;
  ++c_.admitted;
  c_.pending_now = static_cast<int>(pending_.size());
  const double latency = std::max(0.0, now - entry.submit_time);
  c_.total_admission_latency += latency;
  c_.admission_latency_ewma = 0.8 * c_.admission_latency_ewma + 0.2 * latency;
}

void AdmissionController::OnJobFinished(JobId id) {
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].id == id) {
      active_u_ = std::max(0.0, active_u_ - active_[i].u);
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

bool AdmissionController::UpdateBackpressure([[maybe_unused]] double now,
                                             double avg_headroom) {
  last_headroom_ = avg_headroom;
  const double ratio = pending_ratio();
  int level = static_cast<int>(BackpressureLevel::kNone);
  if (ratio >= config_.degrade_start) {
    level = static_cast<int>(BackpressureLevel::kDegrade);
  } else if (ratio >= config_.throttle_start) {
    level = static_cast<int>(BackpressureLevel::kThrottle);
  }
  // A saturated cluster (no D_r headroom) or an admission latency that eats
  // into the SLO budget escalates one step even before the queue fills.
  const bool saturated = avg_headroom < config_.headroom_floor && !pending_.empty();
  const bool latency_high =
      c_.admission_latency_ewma > config_.latency_fraction * config_.default_slo;
  if ((saturated || latency_high) && level < static_cast<int>(BackpressureLevel::kDegrade)) {
    ++level;
  }
  const auto new_level = static_cast<BackpressureLevel>(level);
  if (new_level == level_) {
    return false;
  }
  level_ = new_level;
  c_.level = new_level;
  ++c_.level_changes;
  return true;
}

double AdmissionController::throttle_factor() const {
  if (level_ == BackpressureLevel::kNone) {
    return 1.0;
  }
  if (level_ >= BackpressureLevel::kDegrade) {
    return config_.max_throttle_factor;
  }
  // Interpolate between 1 and the max over the throttle band of the fill
  // ratio, so backoff strengthens smoothly as the queue fills.
  const double span = std::max(1e-9, config_.degrade_start - config_.throttle_start);
  const double x =
      std::clamp((pending_ratio() - config_.throttle_start) / span, 0.0, 1.0);
  return 1.0 + (config_.max_throttle_factor - 1.0) * x;
}

}  // namespace ursa
