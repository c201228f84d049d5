// ursa_sim: command-line driver for the cluster simulator.
//
//   ursa_sim --workload=tpch --scheduler=ursa-ejf --jobs=50 [options]
//
// The flags are the table at the top of main(), which also prints as the
// usage. Chaos, control-plane, speculation and admission flags act on the
// ursa schemes only, and y+s, y+t and y+u record no trace.
//
// Like every bench binary, ursa_sim parses its flags through
// src/common/flags.h: an unknown flag, a malformed value or an out-of-range
// value is named on stderr and the process exits 2 (the usage exit code), so
// typos never silently fall back to defaults.
//
// Prints the paper-style summary (makespan, avg JCT, SE/UE), a fault report
// when chaos was injected, the per-tenant/admission report for open-loop
// runs, and optionally a sampled cluster-utilization series.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/driver/experiment.h"
#include "src/obs/trace.h"
#include "src/workloads/mixed.h"
#include "src/workloads/openloop.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpcds.h"
#include "src/workloads/tpch.h"

namespace {

struct Flags {
  std::string workload = "tpch";
  std::string scheduler = "ursa-ejf";
  int jobs = 50;
  double interval = 5.0;
  uint64_t seed = 42;
  int workers = 20;
  double gbps = 10.0;
  double subscription = 1.0;
  double series = 0.0;
  bool trace = false;  // Record without exporting (summary only).
  std::string trace_out;
  int trace_sample = 1;
  size_t trace_capacity = size_t{1} << 20;
  // Chaos fault injection (Ursa schemes only).
  int fault_crashes = 0;
  int fault_recovers = 0;
  int fault_transients = 0;
  int fault_degrades = 0;
  uint64_t fault_seed = 1;
  double fault_horizon = 100.0;
  double detect_timeout = 2.0;
  double heartbeat = 0.5;
  bool no_lineage = false;
  int retry_attempts = 3;
  // Control-plane chaos (DESIGN.md section 14; Ursa schemes only). Any of
  // these flags turns on the scheduler<->worker message layer.
  bool ctrl = false;
  double msg_loss = 0.0;
  double msg_dup = 0.0;
  double msg_delay = 0.0;
  int sched_crashes = 0;
  double sched_downtime = 5.0;
  double checkpoint_interval = 0.0;
  // Straggler mitigation (DESIGN.md section 9; Ursa schemes only).
  bool spec = false;
  double spec_threshold = 1.75;
  double spec_budget = 0.1;
  // Open-loop serving + admission control (DESIGN.md section 11).
  bool open_loop = false;
  double arrival_rate = 0.5;
  std::string arrival_trace;
  std::string tenants;
  bool admission = false;
  int max_pending = 64;
  double slo = 300.0;
  double u_bound = 4.0;
  // Hot path (DESIGN.md section 12).
  bool sched_counters = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ursa;
  Flags flags;
  FlagSet cli;
  cli.Str("workload", &flags.workload, "tpch|tpcds|tpch2|mixed|synthetic|openloop");
  cli.Str("scheduler", &flags.scheduler,
          "ursa-ejf|ursa-srjf|ursa-graphene|y+s|y+t|y+u|tetris|tetris2|capacity");
  cli.Num("jobs", &flags.jobs, 1, 10000000, "jobs to submit (open loop: arrivals)");
  cli.Num("interval", &flags.interval, 0.0, 1e9, "seconds between submissions");
  cli.Num("seed", &flags.seed, "workload seed");
  cli.Num("workers", &flags.workers, 1, 100000, "cluster size");
  cli.Num("gbps", &flags.gbps, 1e-3, 1e6, "worker downlink, Gbit/s (the only network limit)");
  cli.Num("subscription", &flags.subscription, 1e-3, 100.0, "executor CPU subscription");
  cli.Num("series", &flags.series, 0.0, 1e9, "utilization series step, s (0 = off)");
  cli.Bool("trace", &flags.trace, "record a trace, print its summary");
  cli.Str("trace-out", &flags.trace_out, "Chrome trace JSON file");
  cli.Num("trace-sample", &flags.trace_sample, 1, 1000000, "record 1 in N monotasks");
  cli.Num("trace-capacity", &flags.trace_capacity, size_t{1},
          std::numeric_limits<size_t>::max(), "trace ring events");
  cli.Num("fault-crashes", &flags.fault_crashes, 0, 100000, "worker crashes");
  cli.Num("fault-recovers", &flags.fault_recovers, 0, 100000, "worker crash+rejoins");
  cli.Num("fault-transients", &flags.fault_transients, 0, 100000, "transient failures");
  cli.Num("fault-degrades", &flags.fault_degrades, 0, 100000, "worker slowdowns");
  cli.Num("fault-seed", &flags.fault_seed, "fault plan seed");
  cli.Num("fault-horizon", &flags.fault_horizon, 1e-9, 1e9, "faults land before, s");
  cli.Num("detect-timeout", &flags.detect_timeout, 1e-9, 1e9, "failure detection, s");
  cli.Num("heartbeat", &flags.heartbeat, 1e-9, 1e9, "heartbeat interval, s");
  cli.Bool("no-lineage", &flags.no_lineage, "restart jobs instead of lineage recovery");
  cli.Num("retry-attempts", &flags.retry_attempts, 1, 1000, "attempts per monotask");
  cli.Bool("ctrl", &flags.ctrl, "scheduler<->worker message layer");
  cli.Num("msg-loss", &flags.msg_loss, 0.0, 0.999, "message loss probability");
  cli.Num("msg-dup", &flags.msg_dup, 0.0, 0.999, "message duplication probability");
  cli.Num("msg-delay", &flags.msg_delay, 0.0, 0.999, "message delay probability");
  cli.Num("sched-crash", &flags.sched_crashes, 0, 100000, "scheduler crash+recovers");
  cli.Num("sched-downtime", &flags.sched_downtime, 0.0, 1e9, "scheduler downtime, s");
  cli.Num("checkpoint-interval", &flags.checkpoint_interval, 0.0, 1e9,
          "journal checkpoint period, s (0 = crashes restart jobs)");
  cli.Bool("spec", &flags.spec, "speculative copies of stragglers");
  cli.Num("spec-threshold", &flags.spec_threshold, 1.0, 1e3, "straggler slowdown");
  cli.Num("spec-budget", &flags.spec_budget, 0.0, 1.0, "speculative share of running");
  cli.Bool("open-loop", &flags.open_loop, "open-loop arrivals");
  cli.Num("arrival-rate", &flags.arrival_rate, 1e-9, 1e9, "jobs/s");
  cli.Str("arrival-trace", &flags.arrival_trace, "interarrival gaps file");
  cli.Str("tenants", &flags.tenants, "name:weight:tier:slo,...");
  cli.Bool("admission", &flags.admission, "SLO-aware admission (ursa schemes)");
  cli.Num("max-pending", &flags.max_pending, 1, 10000000, "pending-queue bound");
  cli.Num("slo", &flags.slo, 1e-9, 1e9, "default SLO, s");
  cli.Num("u-bound", &flags.u_bound, 1e-9, 1e9, "admission utilization bound");
  cli.Bool("sched-counters", &flags.sched_counters, "print hot-path counters");
  if (const int rc = cli.Parse(argc, argv)) {
    return rc;
  }
  if (flags.workload == "openloop") {
    flags.open_loop = true;
  }

  // Workload (ignored by open-loop runs: arrivals come from the source).
  Workload workload;
  if (flags.open_loop) {
    workload.name = "openloop";
  } else if (flags.workload == "tpch") {
    TpchWorkloadConfig config;
    config.num_jobs = flags.jobs;
    config.submit_interval = flags.interval;
    config.seed = flags.seed;
    workload = MakeTpchWorkload(config);
  } else if (flags.workload == "tpcds") {
    TpcdsWorkloadConfig config;
    config.num_jobs = flags.jobs;
    config.submit_interval = flags.interval;
    config.seed = flags.seed;
    workload = MakeTpcdsWorkload(config);
  } else if (flags.workload == "tpch2") {
    workload = MakeTpch2Workload(flags.seed);
  } else if (flags.workload == "mixed") {
    MixedWorkloadConfig config;
    config.seed = flags.seed;
    workload = MakeMixedWorkload(config);
  } else if (flags.workload == "synthetic") {
    workload = MakeSyntheticMixedWorkload(std::max(1, flags.jobs / 2), flags.seed);
  } else {
    return cli.Reject("workload", flags.workload);
  }

  // Scheduler. The ursa-* job-ordering variants are driven by the policy
  // registry (DESIGN.md section 13) so new ordering policies show up here
  // without touching this dispatch.
  ExperimentConfig config;
  bool matched = false;
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    if (flags.scheduler == std::string("ursa-") + info.flag) {
      config = UrsaOrderingConfig(info.policy);
      matched = true;
      break;
    }
  }
  if (matched) {
    // Handled above.
  } else if (flags.scheduler == "y+s") {
    config = SparkLikeConfig();
  } else if (flags.scheduler == "y+t") {
    config = TezLikeConfig();
  } else if (flags.scheduler == "y+u") {
    config = MonoSparkConfig();
  } else if (PlacementAlgorithm packing = PlacementAlgorithm::kAlgorithm1;
             ParsePlacementAlgorithm(flags.scheduler, &packing) &&
             packing != PlacementAlgorithm::kAlgorithm1) {
    // Whole-task packing baselines from the registry (tetris|tetris2|capacity).
    config = UrsaEjfConfig();
    config.ursa.placement = packing;
  } else {
    return cli.Reject("scheduler", flags.scheduler);
  }
  if (config.kind == SchedulerKind::kExecutorModel &&
      (flags.trace || !flags.trace_out.empty())) {
    std::fprintf(stderr,
                 "ursa_sim: %s is not supported with --scheduler=%s (the executor model "
                 "records no trace)\n",
                 flags.trace ? "--trace" : "--trace-out", flags.scheduler.c_str());
    return 2;
  }
  config.cluster.num_workers = flags.workers;
  config.cluster.downlink_bytes_per_sec = GbpsToBytesPerSec(flags.gbps);
  config.cm.cpu_subscription_ratio = flags.subscription;
  config.sample_step = flags.series;
  config.trace = flags.trace;
  config.trace_out = flags.trace_out;
  config.trace_sample = flags.trace_sample;
  config.trace_capacity = flags.trace_capacity;

  // Open-loop serving and admission control (DESIGN.md section 11).
  if (flags.open_loop) {
    config.open_loop.enabled = true;
    config.open_loop.seed = flags.seed;
    config.open_loop.arrival_rate = flags.arrival_rate;
    config.open_loop.trace_file = flags.arrival_trace;
    config.open_loop.max_jobs = flags.jobs;
    if (!flags.arrival_trace.empty()) {
      std::vector<double> gaps;
      std::string error;
      if (!LoadInterarrivalTrace(flags.arrival_trace, &gaps, &error)) {
        std::fprintf(stderr, "ursa_sim: --arrival-trace: %s\n", error.c_str());
        return 2;
      }
    }
    if (!flags.tenants.empty()) {
      std::string error;
      if (!ParseTenantSpecs(flags.tenants, &config.open_loop.tenants, &error)) {
        std::fprintf(stderr, "ursa_sim: --tenants: %s\n", error.c_str());
        return 2;
      }
    }
  }
  config.ursa.admission.enabled = flags.admission;
  config.ursa.admission.max_pending = flags.max_pending;
  config.ursa.admission.default_slo = flags.slo;
  config.ursa.admission.utilization_bound = flags.u_bound;

  // Fault-tolerance knobs and the chaos plan.
  config.ursa.fault.detector.heartbeat_interval = flags.heartbeat;
  config.ursa.fault.detector.detect_timeout = flags.detect_timeout;
  config.ursa.fault.enable_lineage_recovery = !flags.no_lineage;
  config.ursa.fault.max_monotask_attempts = flags.retry_attempts;
  config.ursa.spec.enabled = flags.spec;
  config.ursa.spec.slowdown_threshold = flags.spec_threshold;
  config.ursa.spec.budget_fraction = flags.spec_budget;
  // Control-plane message layer + chaos (DESIGN.md section 14). Any chaos
  // knob implies the message layer; with none of them the layer stays off and
  // seeded runs are byte-identical to the direct-call path.
  config.ursa.ctrl.enabled = flags.ctrl || flags.msg_loss > 0.0 || flags.msg_dup > 0.0 ||
                             flags.msg_delay > 0.0 || flags.sched_crashes > 0 ||
                             flags.checkpoint_interval > 0.0;
  config.ursa.ctrl.seed = flags.fault_seed;
  config.ursa.ctrl.loss_prob = flags.msg_loss;
  config.ursa.ctrl.dup_prob = flags.msg_dup;
  config.ursa.ctrl.delay_prob = flags.msg_delay;
  config.ursa.ctrl.checkpoint_interval = flags.checkpoint_interval;
  if (flags.fault_crashes + flags.fault_recovers + flags.fault_transients +
          flags.fault_degrades + flags.sched_crashes >
      0) {
    FaultPlanConfig pc;
    pc.seed = flags.fault_seed;
    pc.num_workers = flags.workers;
    pc.horizon_end = flags.fault_horizon;
    pc.crashes = flags.fault_crashes;
    pc.crash_recovers = flags.fault_recovers;
    pc.transients = flags.fault_transients;
    pc.degrades = flags.fault_degrades;
    pc.sched_crash_recovers = flags.sched_crashes;
    pc.min_sched_downtime = flags.sched_downtime;
    pc.max_sched_downtime = flags.sched_downtime;
    config.fault_plan = MakeRandomFaultPlan(pc);
  }

  const ExperimentResult result = RunExperiment(workload, config, flags.scheduler);

  Table table({"scheme", "jobs", "makespan", "avgJCT", "UEcpu", "SEcpu", "UEmem", "SEmem",
               "straggler%"});
  table.Row()
      .Cell(flags.scheduler)
      .Cell(static_cast<int64_t>(result.records.size()))
      .Cell(result.makespan(), 1)
      .Cell(result.avg_jct(), 2)
      .Cell(result.efficiency.ue_cpu)
      .Cell(result.efficiency.se_cpu)
      .Cell(result.efficiency.ue_mem)
      .Cell(result.efficiency.se_mem)
      .Cell(result.straggler_ratio, 2);
  table.Print(flags.workload + " on " + std::to_string(flags.workers) + " workers");
  MetricsCollector::PrintFaultReport(result.faults, flags.scheduler);
  if (flags.open_loop) {
    MetricsCollector::PrintTenantReport(result.tenants, flags.scheduler + " tenants");
  }
  if (flags.admission) {
    const AdmissionCounters& c = result.admission;
    std::printf(
        "admission: submitted=%lld admitted=%lld shed=%lld (slo=%lld evicted=%lld) "
        "deferrals=%lld maxPending=%d avgLatency=%.3fs level=%s\n",
        static_cast<long long>(c.submitted), static_cast<long long>(c.admitted),
        static_cast<long long>(c.shed), static_cast<long long>(c.slo_rejects),
        static_cast<long long>(c.evictions), static_cast<long long>(c.deferrals),
        c.max_pending_depth, c.avg_admission_latency(), BackpressureLevelName(c.level));
  }
  if (flags.sched_counters) {
    const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
    std::printf(
        "sched: ticks=%lld loadRefreshes=%lld bestWorker=%lld "
        "workersScanned=%lld events=%llu wall=%.3fs\n",
        static_cast<long long>(sc.ticks), static_cast<long long>(sc.load_refreshes),
        static_cast<long long>(sc.bestworker_calls),
        static_cast<long long>(sc.workers_scanned),
        static_cast<unsigned long long>(result.events_fired), result.wall_seconds);
  }
  if (result.trace != nullptr) {
    result.trace->PrintSummary(flags.scheduler);
    if (!flags.trace_out.empty()) {
      std::printf("trace written to %s\n", flags.trace_out.c_str());
    }
  }

  if (flags.series > 0.0) {
    PrintSeriesCsv(flags.scheduler, result.series.t0, result.series.step, result.series.cpu,
                   result.series.mem, result.series.net);
  }
  return 0;
}
