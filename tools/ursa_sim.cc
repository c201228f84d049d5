// ursa_sim: command-line driver for the cluster simulator.
//
//   ursa_sim --workload=tpch --scheduler=ursa-ejf --jobs=50 [options]
//
// Workloads:   tpch | tpcds | tpch2 | mixed | synthetic | openloop
// Schedulers:  ursa-ejf | ursa-srjf | ursa-graphene | y+s | y+t | y+u |
//              tetris | tetris2 | capacity
// Options:     --jobs=N --interval=SEC --seed=N --workers=N
//              --gbps=G (each worker's downlink; the receiver side is the
//              only network limit) --subscription=R (executor schemes)
//              --series=STEP
// Tracing:     --trace (record + summary only) --trace-out=FILE (Chrome
//              trace JSON) --trace-sample=N --trace-capacity=EVENTS
//              (ursa schemes only: y+s, y+t and y+u record no trace)
// Chaos:       --fault-crashes=N --fault-recovers=N --fault-transients=N
//              --fault-degrades=N --fault-seed=N --fault-horizon=SEC
//              --detect-timeout=SEC --heartbeat=SEC --no-lineage
//              --retry-attempts=N
// Control:     --ctrl (scheduler<->worker message layer) --msg-loss=P
//              --msg-dup=P --msg-delay=P --sched-crash=N --sched-downtime=SEC
//              --checkpoint-interval=SEC (enables the decision journal;
//              0 = crash degrades to full job restarts). Any of these
//              implies --ctrl. DESIGN.md section 14.
// Speculation: --spec --spec-threshold=X --spec-budget=FRAC
// Open loop:   --open-loop (or --workload=openloop) --arrival-rate=JOBS/S
//              --arrival-trace=FILE --tenants=name:weight:tier:slo,...
//              (--jobs bounds the arrival count)
// Admission:   --admission --max-pending=N --slo=SEC --u-bound=X (ursa
//              schemes only)
// Hot path:    --sched-counters (tick/load-refresh/scan counters; DESIGN.md
//              section 12)
//
// Unknown flags and out-of-range values are errors: the offending flag is
// named on stderr and the process exits 2 (the usage exit code), so typos
// never silently fall back to defaults.
//
// Prints the paper-style summary (makespan, avg JCT, SE/UE), a fault report
// when chaos was injected, the per-tenant/admission report for open-loop
// runs, and optionally a sampled cluster-utilization series.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

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

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

// Strict numeric parsers: the whole value must parse and land in
// [min_v, max_v], otherwise the flag is rejected by name.
bool ToInt(const std::string& s, long min_v, long max_v, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < min_v || v > max_v) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ToUint64(const std::string& s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || s[0] == '-') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ToDouble(const std::string& s, double min_v, double max_v, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !(v >= min_v) || !(v <= max_v)) {
    return false;
  }
  *out = v;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ursa_sim [--workload=tpch|tpcds|tpch2|mixed|synthetic|openloop]\n"
               "                [--scheduler=ursa-ejf|ursa-srjf|ursa-graphene|y+s|y+t|y+u|"
               "tetris|tetris2|capacity]\n"
               "                [--jobs=N] [--interval=SEC] [--seed=N] [--workers=N]\n"
               "                [--gbps=G (worker downlink)] [--subscription=R]\n"
               "                [--series=STEP]\n"
               "                [--trace] [--trace-out=FILE] [--trace-sample=N]\n"
               "                [--trace-capacity=EVENTS]\n"
               "                [--fault-crashes=N] [--fault-recovers=N]\n"
               "                [--fault-transients=N] [--fault-degrades=N]\n"
               "                [--fault-seed=N] [--fault-horizon=SEC]\n"
               "                [--detect-timeout=SEC] [--heartbeat=SEC]\n"
               "                [--no-lineage] [--retry-attempts=N]\n"
               "                [--ctrl] [--msg-loss=P] [--msg-dup=P] [--msg-delay=P]\n"
               "                [--sched-crash=N] [--sched-downtime=SEC]\n"
               "                [--checkpoint-interval=SEC]\n"
               "                [--spec] [--spec-threshold=X] [--spec-budget=FRAC]\n"
               "                [--open-loop] [--arrival-rate=JOBS/S] [--arrival-trace=FILE]\n"
               "                [--tenants=name:weight:tier:slo,...]\n"
               "                [--admission] [--max-pending=N] [--slo=SEC] [--u-bound=X]\n"
               "                [--sched-counters]\n");
  return 2;
}

int BadFlagValue(const char* name, const std::string& value) {
  std::fprintf(stderr, "ursa_sim: flag --%s rejects '%s' (not a number or out of range)\n",
               name, value.c_str());
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ursa;
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "workload", &value)) {
      flags.workload = value;
    } else if (ParseFlag(argv[i], "scheduler", &value)) {
      flags.scheduler = value;
    } else if (ParseFlag(argv[i], "jobs", &value)) {
      if (!ToInt(value, 1, 10000000, &flags.jobs)) return BadFlagValue("jobs", value);
    } else if (ParseFlag(argv[i], "interval", &value)) {
      if (!ToDouble(value, 0.0, 1e9, &flags.interval)) return BadFlagValue("interval", value);
    } else if (ParseFlag(argv[i], "seed", &value)) {
      if (!ToUint64(value, &flags.seed)) return BadFlagValue("seed", value);
    } else if (ParseFlag(argv[i], "workers", &value)) {
      if (!ToInt(value, 1, 100000, &flags.workers)) return BadFlagValue("workers", value);
    } else if (ParseFlag(argv[i], "gbps", &value)) {
      if (!ToDouble(value, 1e-3, 1e6, &flags.gbps)) return BadFlagValue("gbps", value);
    } else if (ParseFlag(argv[i], "subscription", &value)) {
      if (!ToDouble(value, 1e-3, 100.0, &flags.subscription)) {
        return BadFlagValue("subscription", value);
      }
    } else if (ParseFlag(argv[i], "series", &value)) {
      if (!ToDouble(value, 0.0, 1e9, &flags.series)) return BadFlagValue("series", value);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      flags.trace = true;
    } else if (ParseFlag(argv[i], "trace-out", &value)) {
      flags.trace_out = value;
    } else if (ParseFlag(argv[i], "trace-sample", &value)) {
      if (!ToInt(value, 1, 1000000, &flags.trace_sample)) {
        return BadFlagValue("trace-sample", value);
      }
    } else if (ParseFlag(argv[i], "trace-capacity", &value)) {
      uint64_t capacity = 0;
      if (!ToUint64(value, &capacity) || capacity == 0) {
        return BadFlagValue("trace-capacity", value);
      }
      flags.trace_capacity = static_cast<size_t>(capacity);
    } else if (ParseFlag(argv[i], "fault-crashes", &value)) {
      if (!ToInt(value, 0, 100000, &flags.fault_crashes)) {
        return BadFlagValue("fault-crashes", value);
      }
    } else if (ParseFlag(argv[i], "fault-recovers", &value)) {
      if (!ToInt(value, 0, 100000, &flags.fault_recovers)) {
        return BadFlagValue("fault-recovers", value);
      }
    } else if (ParseFlag(argv[i], "fault-transients", &value)) {
      if (!ToInt(value, 0, 100000, &flags.fault_transients)) {
        return BadFlagValue("fault-transients", value);
      }
    } else if (ParseFlag(argv[i], "fault-degrades", &value)) {
      if (!ToInt(value, 0, 100000, &flags.fault_degrades)) {
        return BadFlagValue("fault-degrades", value);
      }
    } else if (ParseFlag(argv[i], "fault-seed", &value)) {
      if (!ToUint64(value, &flags.fault_seed)) return BadFlagValue("fault-seed", value);
    } else if (ParseFlag(argv[i], "fault-horizon", &value)) {
      if (!ToDouble(value, 1e-9, 1e9, &flags.fault_horizon)) {
        return BadFlagValue("fault-horizon", value);
      }
    } else if (ParseFlag(argv[i], "detect-timeout", &value)) {
      if (!ToDouble(value, 1e-9, 1e9, &flags.detect_timeout)) {
        return BadFlagValue("detect-timeout", value);
      }
    } else if (ParseFlag(argv[i], "heartbeat", &value)) {
      if (!ToDouble(value, 1e-9, 1e9, &flags.heartbeat)) {
        return BadFlagValue("heartbeat", value);
      }
    } else if (std::strcmp(argv[i], "--no-lineage") == 0) {
      flags.no_lineage = true;
    } else if (ParseFlag(argv[i], "retry-attempts", &value)) {
      if (!ToInt(value, 1, 1000, &flags.retry_attempts)) {
        return BadFlagValue("retry-attempts", value);
      }
    } else if (std::strcmp(argv[i], "--ctrl") == 0) {
      flags.ctrl = true;
    } else if (ParseFlag(argv[i], "msg-loss", &value)) {
      if (!ToDouble(value, 0.0, 0.999, &flags.msg_loss)) {
        return BadFlagValue("msg-loss", value);
      }
    } else if (ParseFlag(argv[i], "msg-dup", &value)) {
      if (!ToDouble(value, 0.0, 0.999, &flags.msg_dup)) {
        return BadFlagValue("msg-dup", value);
      }
    } else if (ParseFlag(argv[i], "msg-delay", &value)) {
      if (!ToDouble(value, 0.0, 0.999, &flags.msg_delay)) {
        return BadFlagValue("msg-delay", value);
      }
    } else if (ParseFlag(argv[i], "sched-crash", &value)) {
      if (!ToInt(value, 0, 100000, &flags.sched_crashes)) {
        return BadFlagValue("sched-crash", value);
      }
    } else if (ParseFlag(argv[i], "sched-downtime", &value)) {
      if (!ToDouble(value, 0.0, 1e9, &flags.sched_downtime)) {
        return BadFlagValue("sched-downtime", value);
      }
    } else if (ParseFlag(argv[i], "checkpoint-interval", &value)) {
      if (!ToDouble(value, 0.0, 1e9, &flags.checkpoint_interval)) {
        return BadFlagValue("checkpoint-interval", value);
      }
    } else if (std::strcmp(argv[i], "--spec") == 0) {
      flags.spec = true;
    } else if (ParseFlag(argv[i], "spec-threshold", &value)) {
      if (!ToDouble(value, 1.0, 1e3, &flags.spec_threshold)) {
        return BadFlagValue("spec-threshold", value);
      }
    } else if (ParseFlag(argv[i], "spec-budget", &value)) {
      if (!ToDouble(value, 0.0, 1.0, &flags.spec_budget)) {
        return BadFlagValue("spec-budget", value);
      }
    } else if (std::strcmp(argv[i], "--open-loop") == 0) {
      flags.open_loop = true;
    } else if (ParseFlag(argv[i], "arrival-rate", &value)) {
      if (!ToDouble(value, 1e-9, 1e9, &flags.arrival_rate)) {
        return BadFlagValue("arrival-rate", value);
      }
    } else if (ParseFlag(argv[i], "arrival-trace", &value)) {
      flags.arrival_trace = value;
    } else if (ParseFlag(argv[i], "tenants", &value)) {
      flags.tenants = value;
    } else if (std::strcmp(argv[i], "--admission") == 0) {
      flags.admission = true;
    } else if (ParseFlag(argv[i], "max-pending", &value)) {
      if (!ToInt(value, 1, 10000000, &flags.max_pending)) {
        return BadFlagValue("max-pending", value);
      }
    } else if (ParseFlag(argv[i], "slo", &value)) {
      if (!ToDouble(value, 1e-9, 1e9, &flags.slo)) return BadFlagValue("slo", value);
    } else if (ParseFlag(argv[i], "u-bound", &value)) {
      if (!ToDouble(value, 1e-9, 1e9, &flags.u_bound)) return BadFlagValue("u-bound", value);
    } else if (std::strcmp(argv[i], "--sched-counters") == 0) {
      flags.sched_counters = true;
    } else {
      std::fprintf(stderr, "ursa_sim: unknown flag '%s'\n", argv[i]);
      return Usage();
    }
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
    std::fprintf(stderr, "ursa_sim: unknown workload '%s'\n", flags.workload.c_str());
    return Usage();
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
    std::fprintf(stderr, "ursa_sim: unknown scheduler '%s'\n", flags.scheduler.c_str());
    return Usage();
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
