// SLO-aware admission control (DESIGN.md section 11): shed policies over the
// bounded pending queue, the checkUvalue-style utilization gate, tier
// deferral under degradation, the backpressure ladder and the counters
// identity. Also covers the open-loop config parsers the CLI relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/scheduler/admission.h"
#include "src/workloads/openloop.h"

namespace ursa {
namespace {

AdmissionController::JobInfo MakeJob(JobId id, int tier, double expected_seconds,
                                     double slo = 0.0) {
  AdmissionController::JobInfo info;
  info.id = id;
  info.tier = tier;
  info.expected_seconds = expected_seconds;
  info.slo = slo;
  return info;
}

void ExpectIdentity(const AdmissionCounters& c) {
  EXPECT_EQ(c.submitted, c.admitted + c.shed + c.pending_now);
}

TEST(ShedPolicyTest, ParseAndName) {
  ShedPolicy policy = ShedPolicy::kRejectNewest;
  EXPECT_TRUE(ParseShedPolicy("newest", &policy));
  EXPECT_EQ(policy, ShedPolicy::kRejectNewest);
  EXPECT_TRUE(ParseShedPolicy("largest", &policy));
  EXPECT_EQ(policy, ShedPolicy::kRejectLargestWork);
  EXPECT_TRUE(ParseShedPolicy("tier", &policy));
  EXPECT_EQ(policy, ShedPolicy::kPriorityTier);
  EXPECT_FALSE(ParseShedPolicy("", &policy));
  EXPECT_FALSE(ParseShedPolicy("priority", &policy));
  EXPECT_STREQ(ShedPolicyName(ShedPolicy::kPriorityTier), "priority-tier");
  EXPECT_STREQ(BackpressureLevelName(BackpressureLevel::kDegrade), "degrade");
}

TEST(AdmissionControllerTest, SloUnattainableShedAtSubmit) {
  AdmissionConfig config;
  config.enabled = true;
  config.utilization_bound = 1.0;
  AdmissionController ac(config);
  // u = 20 / 10 = 2 > bound: even an empty cluster cannot meet the SLO.
  const auto decision = ac.OnSubmit(MakeJob(1, 0, 20.0, 10.0), 0.0);
  EXPECT_FALSE(decision.accepted);
  EXPECT_STREQ(decision.reason, "slo-unattainable");
  const AdmissionCounters c = ac.counters();
  EXPECT_EQ(c.slo_rejects, 1);
  EXPECT_EQ(c.shed, 1);
  EXPECT_EQ(c.pending_now, 0);
  ExpectIdentity(c);
}

TEST(AdmissionControllerTest, RejectNewestShedsIncomingWhenFull) {
  AdmissionConfig config;
  config.enabled = true;
  config.max_pending = 2;
  config.shed_policy = ShedPolicy::kRejectNewest;
  AdmissionController ac(config);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(1, 0, 1.0), 0.0).accepted);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(2, 0, 1.0), 1.0).accepted);
  const auto decision = ac.OnSubmit(MakeJob(3, 0, 1.0), 2.0);
  EXPECT_FALSE(decision.accepted);
  EXPECT_EQ(decision.evicted, kInvalidId);
  EXPECT_STREQ(decision.reason, "queue-full");
  const AdmissionCounters c = ac.counters();
  EXPECT_EQ(c.submitted, 3);
  EXPECT_EQ(c.accepted, 2);
  EXPECT_EQ(c.shed, 1);
  EXPECT_EQ(c.evictions, 0);
  EXPECT_EQ(c.pending_now, 2);
  EXPECT_EQ(c.max_pending_depth, 2);
  ExpectIdentity(c);
}

TEST(AdmissionControllerTest, LargestWorkEvictsStrictlyLargestPending) {
  AdmissionConfig config;
  config.enabled = true;
  config.max_pending = 2;
  config.shed_policy = ShedPolicy::kRejectLargestWork;
  AdmissionController ac(config);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(1, 0, 5.0), 0.0).accepted);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(2, 0, 10.0), 1.0).accepted);
  // Incoming 8s of work: job 2 (10s) is the largest and gets evicted.
  const auto evicting = ac.OnSubmit(MakeJob(3, 0, 8.0), 2.0);
  EXPECT_TRUE(evicting.accepted);
  EXPECT_EQ(evicting.evicted, 2);
  EXPECT_STREQ(evicting.reason, "evicted");
  // Incoming work ties the largest pending (8s): the incoming job loses the
  // tie and is shed, because evicting a queued job is strictly more
  // disruptive than rejecting a new one.
  const auto tie = ac.OnSubmit(MakeJob(4, 0, 8.0), 3.0);
  EXPECT_FALSE(tie.accepted);
  EXPECT_EQ(tie.evicted, kInvalidId);
  const AdmissionCounters c = ac.counters();
  EXPECT_EQ(c.evictions, 1);
  EXPECT_EQ(c.shed, 2);
  ExpectIdentity(c);
}

TEST(AdmissionControllerTest, PriorityTierShedsLowestTierNewestFirst) {
  AdmissionConfig config;
  config.enabled = true;
  config.max_pending = 3;
  config.shed_policy = ShedPolicy::kPriorityTier;
  AdmissionController ac(config);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(1, 1, 1.0), 0.0).accepted);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(2, 2, 1.0), 1.0).accepted);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(3, 2, 1.0), 2.0).accepted);
  // High-priority incoming: the newest lowest-tier job (3) goes.
  const auto decision = ac.OnSubmit(MakeJob(4, 0, 1.0), 3.0);
  EXPECT_TRUE(decision.accepted);
  EXPECT_EQ(decision.evicted, 3);
  // Incoming lower-priority than everything pending: sheds itself.
  const auto low = ac.OnSubmit(MakeJob(5, 3, 1.0), 4.0);
  EXPECT_FALSE(low.accepted);
  EXPECT_EQ(low.evicted, kInvalidId);
  ExpectIdentity(ac.counters());
}

TEST(AdmissionControllerTest, StarvationGuardProtectsLongWaiters) {
  AdmissionConfig config;
  config.enabled = true;
  config.max_pending = 1;
  config.shed_policy = ShedPolicy::kPriorityTier;
  config.starvation_guard = 2;
  AdmissionController ac(config);
  // A low-tier job waits while same-tier arrivals bounce off the full queue
  // (same tier + newer loses, so each incoming sheds itself).
  EXPECT_TRUE(ac.OnSubmit(MakeJob(1, 2, 1.0), 0.0).accepted);
  EXPECT_FALSE(ac.OnSubmit(MakeJob(2, 2, 1.0), 1.0).accepted);
  EXPECT_FALSE(ac.OnSubmit(MakeJob(3, 2, 1.0), 2.0).accepted);
  // Job 1 survived starvation_guard shed rounds and is now protected: even
  // a tier-0 arrival cannot evict it and is shed instead.
  const auto high = ac.OnSubmit(MakeJob(4, 0, 1.0), 3.0);
  EXPECT_FALSE(high.accepted);
  EXPECT_EQ(high.evicted, kInvalidId);
  EXPECT_STREQ(high.reason, "queue-full");
  const AdmissionCounters c = ac.counters();
  EXPECT_EQ(c.evictions, 0);
  EXPECT_EQ(c.pending_now, 1);
  ExpectIdentity(c);
}

TEST(AdmissionControllerTest, UtilizationGateBlocksUntilAShareFrees) {
  AdmissionConfig config;
  config.enabled = true;
  config.utilization_bound = 1.0;
  config.default_slo = 10.0;
  AdmissionController ac(config);
  // u = 6/10 = 0.6 each; two together exceed the bound of 1.0.
  EXPECT_TRUE(ac.OnSubmit(MakeJob(1, 0, 6.0), 0.0).accepted);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(2, 0, 6.0), 0.0).accepted);
  EXPECT_EQ(ac.GateActivation(1, 1.0, false), AdmissionController::Gate::kAdmit);
  ac.OnActivated(1, 1.0);
  EXPECT_EQ(ac.GateActivation(2, 1.0, false),
            AdmissionController::Gate::kBlockedUtilization);
  ac.OnJobFinished(1);
  EXPECT_EQ(ac.GateActivation(2, 7.0, false), AdmissionController::Gate::kAdmit);
  ac.OnActivated(2, 7.0);
  const AdmissionCounters c = ac.counters();
  EXPECT_EQ(c.admitted, 2);
  EXPECT_DOUBLE_EQ(c.total_admission_latency, 1.0 + 7.0);
  EXPECT_GT(c.admission_latency_ewma, 0.0);
  ExpectIdentity(c);
}

TEST(AdmissionControllerTest, TierDeferralNeedsDegradeAndCompetingWork) {
  AdmissionConfig config;
  config.enabled = true;
  config.max_pending = 4;
  config.degrade_start = 0.75;
  config.defer_age_cap = 30.0;
  AdmissionController ac(config);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(1, 1, 1.0), 0.0).accepted);
  // Not degraded: a low-tier job activates normally.
  EXPECT_EQ(ac.GateActivation(1, 1.0, true), AdmissionController::Gate::kAdmit);
  // Fill to the degrade threshold and refresh the level.
  EXPECT_TRUE(ac.OnSubmit(MakeJob(2, 0, 1.0), 1.0).accepted);
  EXPECT_TRUE(ac.OnSubmit(MakeJob(3, 0, 1.0), 1.0).accepted);
  EXPECT_TRUE(ac.UpdateBackpressure(2.0, 1.0));
  ASSERT_EQ(ac.level(), BackpressureLevel::kDegrade);
  // Degraded + a higher-priority job waiting: the tier-1 job defers...
  EXPECT_EQ(ac.GateActivation(1, 2.0, true), AdmissionController::Gate::kDeferTier);
  // ...but without competing work deferral is suppressed (it would only
  // idle the cluster), and past the age cap it is admitted regardless.
  EXPECT_EQ(ac.GateActivation(1, 2.0, false), AdmissionController::Gate::kAdmit);
  EXPECT_EQ(ac.GateActivation(1, 40.0, true), AdmissionController::Gate::kAdmit);
  EXPECT_EQ(ac.counters().deferrals, 1);
}

TEST(AdmissionControllerTest, BackpressureLadderAndThrottleFactor) {
  AdmissionConfig config;
  config.enabled = true;
  config.max_pending = 10;
  config.throttle_start = 0.5;
  config.degrade_start = 0.8;
  config.max_throttle_factor = 3.0;
  config.headroom_floor = 0.05;
  AdmissionController ac(config);
  EXPECT_EQ(ac.level(), BackpressureLevel::kNone);
  EXPECT_DOUBLE_EQ(ac.throttle_factor(), 1.0);

  JobId next = 1;
  const auto fill_to = [&](int depth) {
    while (ac.counters().pending_now < depth) {
      ASSERT_TRUE(ac.OnSubmit(MakeJob(next++, 0, 1.0), 0.0).accepted);
    }
  };
  // One pending job + a saturated cluster (no D_r headroom) escalates one
  // step even though the queue is nearly empty.
  fill_to(1);
  EXPECT_TRUE(ac.UpdateBackpressure(1.0, 0.01));
  EXPECT_EQ(ac.level(), BackpressureLevel::kThrottle);
  EXPECT_TRUE(ac.UpdateBackpressure(2.0, 1.0));
  EXPECT_EQ(ac.level(), BackpressureLevel::kNone);

  fill_to(5);  // Ratio 0.5: throttle band.
  EXPECT_TRUE(ac.UpdateBackpressure(3.0, 1.0));
  EXPECT_EQ(ac.level(), BackpressureLevel::kThrottle);
  const double factor = ac.throttle_factor();
  EXPECT_GE(factor, 1.0);
  EXPECT_LT(factor, 3.0);

  fill_to(8);  // Ratio 0.8: degrade, max backoff.
  EXPECT_TRUE(ac.UpdateBackpressure(4.0, 1.0));
  EXPECT_EQ(ac.level(), BackpressureLevel::kDegrade);
  EXPECT_DOUBLE_EQ(ac.throttle_factor(), 3.0);
  EXPECT_FALSE(ac.UpdateBackpressure(5.0, 1.0));  // No change, no transition.
  EXPECT_EQ(ac.counters().level_changes, 4);
  ExpectIdentity(ac.counters());
}

TEST(OpenLoopParsingTest, TenantSpecs) {
  std::vector<TenantSpec> tenants;
  std::string error;
  ASSERT_TRUE(ParseTenantSpecs("interactive:2:0:8,batch:1:1:20,scavenger", &tenants,
                               &error))
      << error;
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants[0].name, "interactive");
  EXPECT_DOUBLE_EQ(tenants[0].weight, 2.0);
  EXPECT_EQ(tenants[1].tier, 1);
  EXPECT_DOUBLE_EQ(tenants[1].slo, 20.0);
  EXPECT_DOUBLE_EQ(tenants[2].weight, 1.0);  // Defaults.
  EXPECT_EQ(tenants[2].tier, 0);

  EXPECT_FALSE(ParseTenantSpecs("a:0", &tenants, &error));      // Zero weight.
  EXPECT_FALSE(ParseTenantSpecs("a:1:-1", &tenants, &error));   // Negative tier.
  EXPECT_FALSE(ParseTenantSpecs("a:x", &tenants, &error));      // Non-numeric.
  EXPECT_FALSE(ParseTenantSpecs(":1", &tenants, &error));       // Empty name.
}

TEST(OpenLoopParsingTest, InterarrivalTrace) {
  const std::string path = ::testing::TempDir() + "/ursa_gaps.txt";
  {
    std::ofstream out(path);
    out << "0.5 1.0\n2.5\n";
  }
  std::vector<double> gaps;
  std::string error;
  ASSERT_TRUE(LoadInterarrivalTrace(path, &gaps, &error)) << error;
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[2], 2.5);

  EXPECT_FALSE(LoadInterarrivalTrace(path + ".missing", &gaps, &error));
  {
    std::ofstream out(path);
    out << "0.5 -1.0\n";
  }
  EXPECT_FALSE(LoadInterarrivalTrace(path, &gaps, &error));  // Negative gap.
  std::remove(path.c_str());
}

TEST(OpenLoopSourceTest, DeterministicSequenceWithTenantsAndSlos) {
  OpenLoopConfig config;
  config.enabled = true;
  config.seed = 7;
  config.arrival_rate = 2.0;
  config.max_jobs = 20;
  std::string error;
  ASSERT_TRUE(ParseTenantSpecs("a:3:0:5,b:1:1:50", &config.tenants, &error));

  OpenLoopSource s1(config);
  OpenLoopSource s2(config);
  while (!s1.Exhausted()) {
    const double gap = s1.NextGap();
    EXPECT_DOUBLE_EQ(gap, s2.NextGap());
    EXPECT_GE(gap, 0.0);
    const JobSpec a = s1.NextJob();
    const JobSpec b = s2.NextJob();
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_TRUE(a.tenant == "a" || a.tenant == "b") << a.tenant;
    // Tenant metadata propagates into the spec the scheduler sees.
    if (a.tenant == "a") {
      EXPECT_EQ(a.priority_tier, 0);
      EXPECT_DOUBLE_EQ(a.slo_seconds, 5.0);
    } else {
      EXPECT_EQ(a.priority_tier, 1);
      EXPECT_DOUBLE_EQ(a.slo_seconds, 50.0);
    }
  }
  EXPECT_EQ(s1.generated(), config.max_jobs);
}

}  // namespace
}  // namespace ursa
