#include "src/metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace ursa {

EfficiencyReport MetricsCollector::Compute(const Cluster& cluster,
                                           const std::vector<JobRecord>& jobs, double end) {
  EfficiencyReport report;
  CHECK_GT(end, 0.0);
  report.makespan = end;

  // Only completed jobs enter the JCT average; shed or unfinished records
  // (open-loop runs with admission control) carry finish_time == -1.
  double jct_sum = 0.0;
  int completed = 0;
  for (const JobRecord& job : jobs) {
    if (job.completed()) {
      jct_sum += job.jct();
      ++completed;
    }
  }
  report.jobs = completed;
  report.avg_jct = completed > 0 ? jct_sum / static_cast<double>(completed) : 0.0;

  // Core/memory time integrals across workers.
  double busy_cpu = 0.0;
  double alloc_cpu = 0.0;
  double used_mem = 0.0;
  double alloc_mem = 0.0;
  double total_cpu = 0.0;
  double total_mem = 0.0;
  std::vector<double> worker_cpu_util;
  std::vector<double> worker_net_util;
  for (int w = 0; w < cluster.size(); ++w) {
    const Worker& worker = cluster.worker(w);
    const double busy = worker.cpu_busy_tracker().IntegralTo(end);
    busy_cpu += busy;
    alloc_cpu += worker.cpu_alloc_tracker().IntegralTo(end);
    used_mem += worker.mem_used_tracker().IntegralTo(end);
    alloc_mem += worker.mem_alloc_tracker().IntegralTo(end);
    total_cpu += worker.config().cores * end;
    total_mem += worker.memory_capacity() * end;
    worker_cpu_util.push_back(100.0 * (busy / end) / worker.config().cores);
    worker_net_util.push_back(100.0 * (worker.net_rx_tracker().IntegralTo(end) / end) /
                              worker.downlink());
  }
  report.se_cpu = total_cpu > 0.0 ? 100.0 * alloc_cpu / total_cpu : 0.0;
  report.ue_cpu = alloc_cpu > 0.0 ? 100.0 * busy_cpu / alloc_cpu : 0.0;
  report.se_mem = total_mem > 0.0 ? 100.0 * alloc_mem / total_mem : 0.0;
  report.ue_mem = alloc_mem > 0.0 ? 100.0 * used_mem / alloc_mem : 0.0;
  report.cpu_imbalance = MeanAbsoluteDeviation(worker_cpu_util);
  report.net_imbalance = MeanAbsoluteDeviation(worker_net_util);
  return report;
}

MetricsCollector::UtilizationSeries MetricsCollector::Sample(const Cluster& cluster,
                                                             double t0, double t1,
                                                             double step) {
  UtilizationSeries series;
  series.t0 = t0;
  series.step = step;
  if (t1 <= t0) {
    return series;
  }
  const size_t n = static_cast<size_t>(std::ceil((t1 - t0) / step));
  series.cpu.assign(n, 0.0);
  series.mem.assign(n, 0.0);
  series.net.assign(n, 0.0);
  double cpu_capacity = 0.0;
  double mem_capacity = 0.0;
  double net_capacity = 0.0;
  for (int w = 0; w < cluster.size(); ++w) {
    const Worker& worker = cluster.worker(w);
    cpu_capacity += worker.config().cores;
    mem_capacity += worker.memory_capacity();
    net_capacity += worker.downlink();
    const auto cpu = worker.cpu_busy_tracker().Resample(t0, t1, step);
    const auto mem = worker.mem_used_tracker().Resample(t0, t1, step);
    const auto net = worker.net_rx_tracker().Resample(t0, t1, step);
    for (size_t i = 0; i < n; ++i) {
      series.cpu[i] += i < cpu.size() ? cpu[i] : 0.0;
      series.mem[i] += i < mem.size() ? mem[i] : 0.0;
      series.net[i] += i < net.size() ? net[i] : 0.0;
    }
  }
  // Guard the divides: an empty cluster (or one whose capacity config is
  // degenerate) must yield 0% utilization, not NaNs.
  for (size_t i = 0; i < n; ++i) {
    series.cpu[i] = cpu_capacity > 0.0 ? 100.0 * series.cpu[i] / cpu_capacity : 0.0;
    series.mem[i] = mem_capacity > 0.0 ? 100.0 * series.mem[i] / mem_capacity : 0.0;
    series.net[i] = net_capacity > 0.0 ? 100.0 * series.net[i] / net_capacity : 0.0;
  }
  return series;
}

double MetricsCollector::StragglerTimeRatio(
    const std::vector<std::vector<std::vector<double>>>& stage_task_times,
    const std::vector<double>& jcts) {
  CHECK_EQ(stage_task_times.size(), jcts.size());
  if (jcts.empty()) {
    return 0.0;
  }
  double ratio_sum = 0.0;
  for (size_t j = 0; j < jcts.size(); ++j) {
    double straggler_time = 0.0;
    for (const std::vector<double>& stage : stage_task_times[j]) {
      if (stage.size() < 4) {
        continue;  // IQR is meaningless for tiny stages.
      }
      const double threshold = OutlierThreshold(stage);
      const double last = *std::max_element(stage.begin(), stage.end());
      if (last > threshold) {
        straggler_time += last - threshold;
      }
    }
    if (jcts[j] > 0.0) {
      ratio_sum += straggler_time / jcts[j];
    }
  }
  return 100.0 * ratio_sum / static_cast<double>(jcts.size());
}

void MetricsCollector::PrintFaultReport(const FaultCounters& stats, const std::string& title) {
  if (!stats.any_faults()) {
    return;
  }
  Table injected({"crashes", "crash+recover", "transients", "degrades"});
  injected.Row()
      .Cell(static_cast<int64_t>(stats.crashes_injected))
      .Cell(static_cast<int64_t>(stats.recoveries_injected))
      .Cell(static_cast<int64_t>(stats.transients_injected))
      .Cell(static_cast<int64_t>(stats.degrades_injected));
  injected.Print(title + " - injected faults");

  Table detection({"detections", "rejoins", "avgDetectLat(s)", "avgRecoveryLat(s)"});
  detection.Row()
      .Cell(static_cast<int64_t>(stats.detections))
      .Cell(static_cast<int64_t>(stats.rejoins))
      .Cell(stats.avg_detection_latency(), 3)
      .Cell(stats.avg_recovery_latency(), 3);
  detection.Print(title + " - detection & recovery");

  Table recovery({"transientFails", "lostOnWorker", "retries", "escalations", "tasksReset",
                  "fullRestartEquiv", "fullRestarts"});
  recovery.Row()
      .Cell(static_cast<int64_t>(stats.transient_failures))
      .Cell(static_cast<int64_t>(stats.worker_loss_failures))
      .Cell(static_cast<int64_t>(stats.retries))
      .Cell(static_cast<int64_t>(stats.escalations))
      .Cell(static_cast<int64_t>(stats.tasks_reset))
      .Cell(static_cast<int64_t>(stats.full_restart_equivalent_tasks))
      .Cell(static_cast<int64_t>(stats.full_restarts));
  recovery.Print(title + " - recovery work");

  if (stats.speculations_launched > 0) {
    Table spec({"launched", "won", "lost", "cancelled", "active", "wastedCPU(B)",
                "wastedDisk(B)", "wastedNet(B)", "wasted(s)"});
    spec.Row()
        .Cell(static_cast<int64_t>(stats.speculations_launched))
        .Cell(static_cast<int64_t>(stats.speculations_won))
        .Cell(static_cast<int64_t>(stats.speculations_lost))
        .Cell(static_cast<int64_t>(stats.speculations_cancelled))
        .Cell(static_cast<int64_t>(stats.speculations_active()))
        .Cell(stats.wasted_bytes[static_cast<int>(ResourceType::kCpu)], 0)
        .Cell(stats.wasted_bytes[static_cast<int>(ResourceType::kDisk)], 0)
        .Cell(stats.wasted_bytes[static_cast<int>(ResourceType::kNetwork)], 0)
        .Cell(stats.total_wasted_seconds(), 2);
    spec.Print(title + " - speculation");
  }

  if (stats.msgs_sent > 0) {
    Table ctrl({"msgs", "lost", "dup", "delayed", "fenced", "dupSuppressed", "retransmits"});
    ctrl.Row()
        .Cell(static_cast<int64_t>(stats.msgs_sent))
        .Cell(static_cast<int64_t>(stats.msgs_lost))
        .Cell(static_cast<int64_t>(stats.msgs_duplicated))
        .Cell(static_cast<int64_t>(stats.msgs_delayed))
        .Cell(static_cast<int64_t>(stats.msgs_fenced))
        .Cell(static_cast<int64_t>(stats.dup_suppressed))
        .Cell(static_cast<int64_t>(stats.retransmits));
    ctrl.Print(title + " - control plane");
  }

  if (stats.scheduler_crashes > 0 || stats.checkpoints > 0) {
    Table crash({"schedCrashes", "recoveries", "avgRecoveryLat(s)", "checkpoints",
                 "journalRecords", "redispatched"});
    crash.Row()
        .Cell(static_cast<int64_t>(stats.scheduler_crashes))
        .Cell(static_cast<int64_t>(stats.scheduler_recoveries))
        .Cell(stats.avg_scheduler_recovery_latency(), 3)
        .Cell(static_cast<int64_t>(stats.checkpoints))
        .Cell(stats.journal_records)
        .Cell(static_cast<int64_t>(stats.redispatched_monotasks));
    crash.Print(title + " - scheduler crash recovery");
  }
}

double JainFairnessIndex(const std::vector<double>& shares) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (shares.empty() || sum_sq <= 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

MetricsCollector::TenantReport MetricsCollector::ComputeTenantReport(
    const std::vector<JobRecord>& records, double horizon) {
  TenantReport report;
  // Ordered map: the report (and anything serialized from it) is
  // deterministic across runs.
  std::map<std::string, TenantStats> by_tenant;
  std::map<std::string, std::vector<double>> jcts;
  std::map<std::string, int> slo_carrying;
  std::map<std::string, int> slo_met;
  for (const JobRecord& r : records) {
    const std::string tenant = r.tenant.empty() ? "default" : r.tenant;
    TenantStats& stats = by_tenant[tenant];
    stats.tenant = tenant;
    stats.tier = r.tier;
    ++stats.submitted;
    if (r.shed) {
      ++stats.shed;
    } else if (r.completed()) {
      ++stats.completed;
      jcts[tenant].push_back(r.jct());
      if (r.slo > 0.0) {
        ++slo_carrying[tenant];
        if (r.met_slo()) {
          ++slo_met[tenant];
        }
      }
    }
  }
  std::vector<double> service_ratios;
  for (auto& [tenant, stats] : by_tenant) {
    const Summary jct = Summarize(jcts[tenant]);
    stats.p50_jct = jct.p50;
    stats.p95_jct = jct.p95;
    stats.p99_jct = jct.p99;
    stats.slo_attainment =
        slo_carrying[tenant] > 0
            ? static_cast<double>(slo_met[tenant]) / slo_carrying[tenant]
            : 1.0;
    stats.goodput = horizon > 0.0 ? stats.completed / horizon : 0.0;
    stats.service_ratio =
        stats.submitted > 0 ? static_cast<double>(stats.completed) / stats.submitted : 0.0;
    service_ratios.push_back(stats.service_ratio);
    report.total_completed += stats.completed;
    report.total_shed += stats.shed;
    report.tenants.push_back(stats);
  }
  report.jain_fairness = JainFairnessIndex(service_ratios);
  report.goodput = horizon > 0.0 ? report.total_completed / horizon : 0.0;
  return report;
}

void MetricsCollector::PrintTenantReport(const TenantReport& report,
                                         const std::string& title) {
  if (report.tenants.empty()) {
    return;
  }
  Table table({"tenant", "tier", "submitted", "completed", "shed", "p50JCT", "p95JCT",
               "p99JCT", "SLO%", "goodput/s"});
  for (const TenantStats& t : report.tenants) {
    table.Row()
        .Cell(t.tenant)
        .Cell(static_cast<int64_t>(t.tier))
        .Cell(static_cast<int64_t>(t.submitted))
        .Cell(static_cast<int64_t>(t.completed))
        .Cell(static_cast<int64_t>(t.shed))
        .Cell(t.p50_jct, 2)
        .Cell(t.p95_jct, 2)
        .Cell(t.p99_jct, 2)
        .Cell(100.0 * t.slo_attainment, 1)
        .Cell(t.goodput, 3);
  }
  table.Print(title + " - tenants (Jain fairness " +
              std::to_string(report.jain_fairness).substr(0, 5) + ")");
}

}  // namespace ursa
