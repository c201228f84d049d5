// Cluster-level metrics (section 5, "Performance metrics").
//
// Definitions from the paper: with X the allocated core/memory time, Y the
// total core/memory time (capacity times makespan) and Z the actually
// utilized time, scheduling efficiency SE = X / Y and utilization efficiency
// UE = Z / X. The average cluster utilization equals SE * UE. We compute all
// three from the running integrals of the workers' StepTrackers, plus
// makespan, average JCT, the straggler measure of section 5.1.2 (Q3 + 1.5
// IQR outlier threshold per stage) and the cross-worker utilization
// imbalance.
#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <string>
#include <vector>

#include "src/exec/cluster.h"
#include "src/fault/fault_stats.h"

namespace ursa {

struct EfficiencyReport {
  double makespan = 0.0;
  double avg_jct = 0.0;
  double ue_cpu = 0.0;   // Percent.
  double se_cpu = 0.0;   // Percent.
  double ue_mem = 0.0;   // Percent.
  double se_mem = 0.0;   // Percent.
  // Mean absolute deviation of per-worker average CPU utilization (percent
  // points); the paper reports ~2% for Ursa vs 16-21% for Y+S.
  double cpu_imbalance = 0.0;
  double net_imbalance = 0.0;
  int jobs = 0;
};

// Per-job record every scheduler implementation fills in, shared so the
// experiment driver can compare schemes uniformly.
struct JobRecord {
  JobId id = kInvalidId;
  std::string name;
  std::string klass;
  std::string tenant;           // "" for single-tenant workloads.
  int tier = 0;                 // Priority tier; 0 is the highest.
  double slo = 0.0;             // Declared SLO in seconds (0 = none).
  double submit_time = 0.0;
  double admit_time = -1.0;
  double finish_time = -1.0;
  double cpu_seconds = 0.0;
  bool shed = false;            // Rejected/evicted by admission control.
  double shed_time = -1.0;
  bool completed() const { return finish_time >= 0.0; }
  bool met_slo() const { return completed() && (slo <= 0.0 || jct() <= slo); }
  double jct() const { return finish_time - submit_time; }
};

class MetricsCollector {
 public:
  // Computes cluster efficiency over [0, end] (typically end = makespan).
  // `end` must not precede any tracker's last change, so a caller whose
  // trackers move after the last job finishes computes at that instant.
  static EfficiencyReport Compute(const Cluster& cluster, const std::vector<JobRecord>& jobs,
                                  double end);

  // Cluster-aggregated utilization series in percent (cpu, mem, net),
  // resampled at `step` over [t0, t1]. Needs the trackers' histories
  // (Cluster::KeepTrackerHistories before the run).
  struct UtilizationSeries {
    double t0 = 0.0;
    double step = 0.0;
    std::vector<double> cpu;
    std::vector<double> mem;
    std::vector<double> net;
  };
  static UtilizationSeries Sample(const Cluster& cluster, double t0, double t1, double step);

  // Straggler analysis (section 5.1.2): per stage, tasks finishing later
  // than Q3 + 1.5 IQR of the stage's task completion times are stragglers;
  // the stage's straggler time is the last completion minus the threshold.
  // Returns the average over jobs of (total straggler time / JCT), percent.
  // `stage_task_times[j]` holds, for job j, one vector of task completion
  // times per stage.
  static double StragglerTimeRatio(
      const std::vector<std::vector<std::vector<double>>>& stage_task_times,
      const std::vector<double>& jcts);

  // Prints the fault-tolerance summary of one run (injected faults,
  // detection latency, retries, lineage-recovery savings). No-op when the
  // run had no faults.
  static void PrintFaultReport(const FaultCounters& stats, const std::string& title);

  // --- Multi-tenant open-loop serving (DESIGN.md section 11). ---
  struct TenantStats {
    std::string tenant;
    int tier = 0;
    int submitted = 0;
    int completed = 0;
    int shed = 0;
    double p50_jct = 0.0;
    double p95_jct = 0.0;
    double p99_jct = 0.0;
    // Fraction of SLO-carrying completed jobs that met their SLO, in
    // [0, 1]; 1 when no job declared an SLO.
    double slo_attainment = 1.0;
    // Completed jobs per second over the report horizon.
    double goodput = 0.0;
    // Completed / submitted: the fraction of offered load actually served.
    double service_ratio = 0.0;
  };
  struct TenantReport {
    std::vector<TenantStats> tenants;  // Ordered by tenant name.
    // Jain fairness index over per-tenant service ratios, in (0, 1];
    // 1 = every tenant got the same fraction of its offered load served.
    double jain_fairness = 1.0;
    int total_completed = 0;
    int total_shed = 0;
    double goodput = 0.0;  // Cluster-wide completed jobs per second.
  };
  // `horizon` is the wall of the run in simulated seconds (> 0) used for
  // goodput; records with an empty tenant are grouped under "default".
  static TenantReport ComputeTenantReport(const std::vector<JobRecord>& records,
                                          double horizon);
  static void PrintTenantReport(const TenantReport& report, const std::string& title);
};

// Jain's fairness index (sum x)^2 / (n * sum x^2) over non-negative shares;
// returns 1.0 for empty or all-zero input.
double JainFairnessIndex(const std::vector<double>& shares);

}  // namespace ursa

#endif  // SRC_METRICS_METRICS_H_
