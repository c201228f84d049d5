// One repetition of one benchmark workload, run in its own process by
// perfbench/run.py so that a CHECK abort costs one counted run, not the whole
// benchmark, and so that peak RSS is per run.
//
//   perfbench_child --workload=tpch|scale|chaos --seed=N [--smoke] [--trace]
//
// Untraced, it times set-up and the event loop of RunExperiment and prints
// the simulated results. With --trace it runs the same workload traced and
// then derives the per-layer numbers from outside the program: the Tracer's
// tick spans and monotask summaries, the scheduler and fault counters, and
// timed probes that call each layer's public functions on this workload's
// own plans and traced placements. The last stdout line is one JSON object;
// workloads and metrics are documented in perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/dag/job.h"
#include "src/driver/experiment.h"
#include "src/exec/estimator.h"
#include "src/exec/metadata_store.h"
#include "src/net/flow_simulator.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/tpch.h"

namespace {

using namespace ursa;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile: the smallest value with at least `pct`% of the
// sample at or below it, so p90 of 100 values leaves exactly 10 beyond it.
double NearestRank(std::vector<double> values, int pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t rank = std::clamp<size_t>((static_cast<size_t>(pct) * n + 99) / 100, 1, n);
  return values[rank - 1];
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  bool smoke = false;
  bool trace = false;
};

// --- Workloads (perfbench/README.md explains each choice). ---

// TPC-H closed batch with a fixed query mix: 100 jobs over the 22 templates
// and the 60/30/10 split of 200 GB / 500 GB / 1 TB databases, one 1 TB job in
// every block of ten, each job with its own fixed skew seed. The seed shuffles
// the jobs within each block (a submission moves by under 5 s) and jitters
// each submission inside its 0.5 s slot. Drawing the mix freely, as
// MakeTpchWorkload does, moves makespan by over 30% between seeds; this way
// every seed carries the same work on nearly the same timeline.
Workload MakeTpchMix(uint64_t seed, bool smoke) {
  const int jobs = smoke ? 8 : 100;
  const double scale = smoke ? 0.05 : 1.0;
  constexpr size_t kBlock = 10;
  constexpr double kDbGiB[kBlock] = {200, 200, 200, 200, 200, 200, 500, 500, 500, 1024};
  std::vector<int> mix;  // Job k runs query k % 22 + 1 on database kDbGiB[k % kBlock].
  for (int k = 0; k < jobs; ++k) {
    mix.push_back(k);
  }
  Rng rng(seed);
  for (size_t begin = 0; begin < mix.size(); begin += kBlock) {
    const size_t end = std::min(mix.size(), begin + kBlock);
    for (size_t i = end - 1; i > begin; --i) {
      std::swap(mix[i], mix[begin + rng.UniformInt(static_cast<uint64_t>(i - begin + 1))]);
    }
  }
  Workload workload;
  workload.name = "tpch";
  for (int i = 0; i < jobs; ++i) {
    WorkloadJob job;
    const int k = mix[static_cast<size_t>(i)];
    const double db_bytes = kDbGiB[static_cast<size_t>(k) % kBlock] * kGiB * scale;
    job.spec = MakeTpchQuery(k % 22 + 1, db_bytes, 7919 * static_cast<uint64_t>(k) + 1);
    job.spec.name += "-" + std::to_string(i);
    job.submit_time = 0.5 * i + rng.Uniform(0.0, 0.45);
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

// bench_scale's placement-stress shape: workers/4 single-stage CPU-only jobs
// of 512 tasks each, one every 0.25 s. No shuffle runs. The seed does not
// change the simulated results of these job bodies, so it also delays each
// submission by up to 5 ms.
Workload MakeScale(int workers, uint64_t seed) {
  const int jobs = workers / 4;
  Rng rng(seed);
  Workload workload;
  workload.name = "scale";
  for (int i = 0; i < jobs; ++i) {
    SyntheticJobParams params;
    params.type = i % 2 == 0 ? 1 : 2;
    params.stages = 1;
    params.parallelism = 512;
    params.type1_task_bytes = 24.0 * 1024 * 1024;
    params.complexity = 4.0;
    WorkloadJob wj;
    wj.spec = BuildSyntheticJob(params, seed + static_cast<uint64_t>(i) * 7919);
    wj.spec.name += "-" + std::to_string(i);
    wj.submit_time = 0.25 * i + rng.Uniform(0.0, 0.005);
    workload.jobs.push_back(std::move(wj));
  }
  return workload;
}

int NumWorkers(const Args& args) {
  if (args.workload == "scale") {
    return args.smoke ? 100 : 10000;
  }
  return args.smoke ? 20 : 400;
}

Workload MakeWorkload(const Args& args) {
  if (args.workload == "scale") {
    return MakeScale(NumWorkers(args), args.seed);
  }
  return MakeTpchMix(args.seed, args.smoke);
}

// The chaos plan: over [5 s, horizon), `transients` single-monotask failures
// and `degrades` half-speed 10 s windows on seeded workers, each drawn inside
// its own equal slice of the horizon rather than uniformly over all of it;
// and one scheduler crash 1-1.5 s into the batch with 5 s downtime, which
// restores the first jobs from the journal and parks the submissions that
// arrive while it is down. A later crash restores whichever shuffles happen
// to be in flight, and journal recovery loses those monotasks' input bytes
// (README.md, "Findings"): with the crash drawn over the whole horizon,
// makespan moved by over 25% between seeds.
FaultPlan MakeChaosPlan(uint64_t fault_seed, int workers, double horizon, int transients,
                        int degrades) {
  Rng rng(fault_seed);
  FaultPlan plan;
  auto add = [&](FaultKind kind, int count) {
    const double slice = (horizon - 5.0) / count;
    for (int i = 0; i < count; ++i) {
      FaultEvent event;
      event.kind = kind;
      event.time = 5.0 + slice * (i + rng.NextDouble());
      event.worker = static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(workers)));
      event.duration = 10.0;
      event.factor = 0.5;
      plan.events.push_back(event);
    }
  };
  add(FaultKind::kTransient, transients);
  add(FaultKind::kDegrade, degrades);
  FaultEvent crash;
  crash.kind = FaultKind::kSchedulerCrashRecover;
  crash.time = 1.0 + rng.Uniform(0.0, 0.5);
  crash.downtime = 5.0;
  plan.events.push_back(crash);
  return plan;
}

// Default UrsaEjfConfig everywhere; `chaos` adds non-kill faults, a lossy
// control plane, one journaled scheduler crash and speculation. Worker kills
// are left out on purpose (README.md, "Worker kills").
ExperimentConfig MakeConfig(const Args& args) {
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = NumWorkers(args);
  if (args.workload == "chaos") {
    const uint64_t fault_seed = args.seed * 7919 + 1;
    config.fault_plan = MakeChaosPlan(fault_seed, config.cluster.num_workers,
                                      args.smoke ? 20.0 : 150.0, args.smoke ? 4 : 40,
                                      args.smoke ? 2 : 8);
    config.ursa.ctrl.enabled = true;
    config.ursa.ctrl.seed = fault_seed;
    config.ursa.ctrl.loss_prob = 0.01;
    config.ursa.ctrl.dup_prob = 0.01;
    config.ursa.ctrl.checkpoint_interval = 5.0;
    config.ursa.spec.enabled = true;
  }
  if (args.trace) {
    config.trace = true;
    // Every event must fit the ring: the probes replay task completions and
    // network dispatches, and a dropped event would break the replay. On
    // `scale` (1.28M monotasks) monotasks are sampled; task events and tick
    // spans are always recorded.
    config.trace_capacity = size_t{1} << 22;
    config.trace_sample = args.workload == "scale" ? 64 : 1;
  }
  return config;
}

// --- JSON output. ---

std::string JsonQuote(const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
    }
    quoted += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return quoted + "\"";
}

class JsonObject {
 public:
  void Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void Int(const char* key, int64_t value) { Raw(key, std::to_string(value)); }
  void Str(const char* key, const std::string& value) { Raw(key, JsonQuote(value)); }
  void Raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += std::string("\"") + key + "\": " + json;
  }
  std::string Close() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// --- Measurements. ---

// Host time before the first event: workload generation, fault plan, and
// cluster and scheduler construction. RunExperiment builds its own cluster
// and scheduler, so the same construction is timed here on the run's config.
double TimeSetup(const Args& args, Workload* workload, ExperimentConfig* config) {
  const Clock::time_point start = Clock::now();
  Workload fresh_workload = MakeWorkload(args);
  ExperimentConfig fresh_config = MakeConfig(args);
  Simulator sim(fresh_config.queue_kind);
  Cluster cluster(&sim, fresh_config.cluster);
  UrsaScheduler scheduler(&sim, &cluster, fresh_config.ursa);
  const double seconds = SecondsSince(start);
  *workload = std::move(fresh_workload);
  *config = std::move(fresh_config);
  return seconds;
}

// Simulated results: deterministic for a seed, so the runner requires them
// to match exactly across repetitions and between traced and untraced runs.
void AddSimMetrics(const Workload& workload, const ExperimentResult& result,
                   JsonObject* sim) {
  std::vector<double> jcts;
  std::vector<double> admit_waits;
  for (const JobRecord& record : result.records) {
    if (record.completed()) {
      jcts.push_back(record.jct());
    }
    if (record.admit_time >= 0.0) {
      admit_waits.push_back(record.admit_time - record.submit_time);
    }
  }
  double jct_sum = 0.0;
  for (double jct : jcts) {
    jct_sum += jct;
  }
  const FaultCounters& f = result.faults;
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  sim->Int("jobs_submitted", static_cast<int64_t>(workload.jobs.size()));
  sim->Int("jobs_completed", static_cast<int64_t>(jcts.size()));
  sim->Num("makespan_s", result.makespan());
  sim->Num("jct_mean_s", jcts.empty() ? 0.0 : jct_sum / static_cast<double>(jcts.size()));
  sim->Num("jct_p50_s", NearestRank(jcts, 50));
  sim->Num("jct_p90_s", NearestRank(jcts, 90));
  sim->Num("se_cpu_pct", result.efficiency.se_cpu);
  sim->Num("ue_mem_pct", result.efficiency.ue_mem);
  sim->Int("sim.events", static_cast<int64_t>(result.events_fired));
  sim->Int("scheduler.ticks", sc.ticks);
  sim->Int("scheduler.bestworker_calls", sc.bestworker_calls);
  sim->Int("scheduler.workers_scanned", sc.workers_scanned);
  sim->Int("scheduler.load_refreshes", sc.load_refreshes);
  sim->Int("scheduler.scoring_truncated", sc.scoring_truncated);
  sim->Num("scheduler.admit_wait_p90_s", NearestRank(admit_waits, 90));
  sim->Int("fault.transient_failures", f.transient_failures);
  sim->Int("fault.retries", f.retries);
  sim->Int("fault.escalations", f.escalations);
  sim->Int("spec.launched", f.speculations_launched);
  sim->Num("spec.won_per_launched",
           f.speculations_launched > 0
               ? static_cast<double>(f.speculations_won) / f.speculations_launched
               : 0.0);
  sim->Num("spec.wasted_s", f.total_wasted_seconds());
  sim->Int("ctrl.msgs_sent", f.msgs_sent);
  sim->Int("ctrl.retransmits", f.retransmits);
  sim->Int("ctrl.fenced", f.msgs_fenced);
  sim->Int("ctrl.journal_records", f.journal_records);
  sim->Int("ctrl.redispatched", f.redispatched_monotasks);
}

// A network dispatch seen in the trace: when, into which worker, and the
// input bytes the run recorded for it.
struct NetDispatch {
  double t = 0.0;
  WorkerId dst = kInvalidId;
  JobId job = kInvalidId;
  MonotaskId monotask = kInvalidId;
  double bytes = 0.0;
};

// What the net replay needs of one network monotask's pulls: the total and
// the two largest sources, enough to pick the largest remote source for any
// destination as Worker::Execute does (ties go to the lower worker id).
struct PullSummary {
  double bytes = 0.0;
  WorkerId top[2] = {kInvalidId, kInvalidId};
  double top_bytes[2] = {-1.0, -1.0};

  explicit PullSummary(const std::vector<RunnableMonotask::Pull>& pulls) {
    for (const RunnableMonotask::Pull& pull : pulls) {  // Ascending source ids.
      bytes += pull.bytes;
      if (pull.bytes > top_bytes[0]) {
        top[1] = top[0];
        top_bytes[1] = top_bytes[0];
        top[0] = pull.src;
        top_bytes[0] = pull.bytes;
      } else if (pull.bytes > top_bytes[1]) {
        top[1] = pull.src;
        top_bytes[1] = pull.bytes;
      }
    }
  }

  // One aggregate flow from the largest remote source, or a local copy into
  // `dst` when no remote source holds any bytes.
  WorkerId FlowSource(WorkerId dst) const {
    const int i = top[0] != dst ? 0 : 1;
    return top[i] != kInvalidId && top_bytes[i] > 0.0 ? top[i] : dst;
  }
};

uint64_t MonotaskKey(JobId job, MonotaskId m) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(job)) << 32) |
         static_cast<uint32_t>(m);
}

// Per-layer numbers of one traced run; `errors` collects failed checks.
// The scheduler counters and event count it uses are reported by
// AddSimMetrics, since they are deterministic.
void AddLayerMetrics(const Workload& workload, const ExperimentConfig& config,
                     ExperimentResult& result, JsonObject* layer,
                     std::vector<std::string>* errors) {
  const Tracer& tracer = *result.trace;
  const Tracer::TickSummary ticks = tracer.tick_summary();
  const auto mono = tracer.SummarizeMonotasks();
  const uint64_t dropped = tracer.dropped();
  const int sample = tracer.sample();
  std::vector<TraceEvent> events = tracer.Snapshot();
  result.trace.reset();  // Frees the ring before the probes allocate.

  // scheduler (host): tick spans.
  std::vector<double> tick_ms;
  std::vector<double> qwait[kNumMonotaskResources];
  std::vector<NetDispatch> net_dispatches;
  double traced_net_bytes = 0.0;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kTick) {
      tick_ms.push_back(e.wall_us / 1e3);
    } else if (e.kind == TraceEventKind::kDispatch && e.resource >= 0) {
      qwait[e.resource].push_back(e.b);
      if (e.resource == static_cast<int8_t>(ResourceType::kNetwork)) {
        net_dispatches.push_back({e.t, e.worker, e.job, e.monotask, e.a});
        traced_net_bytes += e.a;
      }
    }
  }
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  const double tick_s = ticks.total_wall_us / 1e6;
  layer->Num("scheduler.tick_s", tick_s);
  layer->Num("scheduler.tick_p99_ms", NearestRank(tick_ms, 99));
  layer->Num("scheduler.scanned_per_call",
             sc.bestworker_calls > 0
                 ? static_cast<double>(sc.workers_scanned) / sc.bestworker_calls
                 : 0.0);
  layer->Num("scheduler.placed_per_candidate",
             ticks.candidates > 0 ? static_cast<double>(ticks.placed) / ticks.candidates
                                  : 0.0);

  // sim (host): the event loop outside scheduler ticks.
  const double nontick_s = result.wall_seconds - tick_s;
  layer->Num("sim.nontick_s", nontick_s);
  layer->Num("sim.us_per_event",
             result.events_fired > 0 ? nontick_s * 1e6 / result.events_fired : 0.0);
  if (tick_s > result.wall_seconds) {
    errors->push_back("tick spans exceed the traced run's wall time");
  }

  // exec (sim): per-resource queue wait and busy time from the monotask
  // summaries; sampled on `scale`, so counts and sums are scaled back up.
  const char* kQwaitNames[kNumMonotaskResources] = {
      "exec.cpu.qwait_p90_s", "exec.net.qwait_p90_s", "exec.disk.qwait_p90_s"};
  int64_t dispatched = 0;
  for (int r = 0; r < kNumMonotaskResources; ++r) {
    layer->Num(kQwaitNames[r], NearestRank(qwait[r], 90));
    dispatched += mono[static_cast<size_t>(r)].dispatches * sample;
  }
  layer->Num("exec.cpu.busy_s",
             mono[static_cast<size_t>(ResourceType::kCpu)].busy_time * sample);
  layer->Num("exec.net.busy_s",
             mono[static_cast<size_t>(ResourceType::kNetwork)].busy_time * sample);
  layer->Int("exec.monotasks_dispatched", dispatched);
  layer->Int("obs.trace_dropped", static_cast<int64_t>(dropped));
  if (dropped > 0) {
    errors->push_back("trace ring dropped " + std::to_string(dropped) +
                      " events; the probes need every one");
    return;
  }

  // dag probe: compile every job of the workload.
  std::vector<std::unique_ptr<Job>> jobs;
  int64_t num_tasks = 0;
  int64_t num_monotasks = 0;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    jobs.push_back(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
  }
  layer->Num("dag.compile_s", SecondsSince(start));
  for (const auto& job : jobs) {
    num_tasks += static_cast<int64_t>(job->plan.tasks().size());
    num_monotasks += static_cast<int64_t>(job->plan.monotasks().size());
  }
  layer->Int("dag.tasks", num_tasks);
  layer->Int("dag.monotasks", num_monotasks);

  // exec probe: replay every traced task completion, in trace order, against
  // a fresh MetadataStore: estimate the task, resolve the pulls of its
  // network monotasks, record its outputs at the traced worker, and drop a
  // job's metadata when its last task completes. Each call is timed alone.
  MetadataStore meta;
  std::vector<std::vector<char>> task_done(jobs.size());
  std::vector<size_t> tasks_left(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    task_done[j].assign(jobs[j]->plan.tasks().size(), 0);
    tasks_left[j] = jobs[j]->plan.tasks().size();
  }
  std::unordered_map<uint64_t, PullSummary> pulls_by_monotask;
  double estimate_s = 0.0, resolve_s = 0.0, put_s = 0.0, drop_s = 0.0;
  int64_t estimate_calls = 0, resolve_calls = 0, pull_partitions = 0;
  size_t peak_entries = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kTaskCompleted) {
      continue;
    }
    const size_t j = static_cast<size_t>(e.job);
    if (task_done[j][static_cast<size_t>(e.task)] != 0) {
      continue;  // A re-reported completion; the first one placed the outputs.
    }
    task_done[j][static_cast<size_t>(e.task)] = 1;
    const Job& job = *jobs[j];
    start = Clock::now();
    UsageEstimator::EstimateTask(job, e.task, meta, 0.0);
    estimate_s += SecondsSince(start);
    ++estimate_calls;
    for (MonotaskId m : job.plan.task(e.task).monotasks) {
      const MonotaskSpec& spec = job.plan.monotask(m);
      if (spec.type == ResourceType::kNetwork) {
        start = Clock::now();
        const auto pulls = UsageEstimator::ResolvePulls(job, m, meta);
        resolve_s += SecondsSince(start);
        ++resolve_calls;
        const CollapsedOp& cop = job.plan.cop(spec.cop);
        for (size_t r = 0; r < cop.reads.size(); ++r) {
          pull_partitions += cop.read_modes[r] == ReadMode::kGatherSlices
                                 ? job.plan.dataset_partitions(cop.reads[r])
                                 : 1;
        }
        pulls_by_monotask.emplace(MonotaskKey(e.job, m), PullSummary(pulls));
      }
      const double input = UsageEstimator::MonotaskInputBytes(job, m, meta, nullptr);
      const auto outputs = UsageEstimator::ComputeOutputs(job, m, input);
      start = Clock::now();
      for (const OutputRecord& rec : outputs) {
        meta.Put(job.id, rec.data, rec.partition, rec.bytes, e.worker);
      }
      put_s += SecondsSince(start);
    }
    peak_entries = std::max(peak_entries, meta.size());
    if (--tasks_left[j] == 0) {
      start = Clock::now();
      meta.DropJob(job.id);
      drop_s += SecondsSince(start);
    }
  }
  layer->Num("exec.estimate_s", estimate_s);
  layer->Int("exec.estimate_calls", estimate_calls);
  layer->Num("exec.resolve_pulls_s", resolve_s);
  layer->Int("exec.resolve_pulls_calls", resolve_calls);
  layer->Int("exec.pull_partitions", pull_partitions);
  layer->Num("exec.meta_put_s", put_s);
  layer->Num("exec.meta_drop_s", drop_s);
  layer->Int("exec.meta_peak_entries", static_cast<int64_t>(peak_entries));
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (tasks_left[j] != 0) {
      errors->push_back("job " + std::to_string(j) + " has tasks with no traced completion");
      break;
    }
  }

  // net probe: a standalone FlowSimulator replays every traced network
  // dispatch at its simulated time, with the pulls the exec probe resolved
  // for that monotask shaped into a flow as Worker::Execute shapes it.
  const ClusterConfig& cc = config.cluster;
  Simulator sim;
  FlowSimulator net(&sim, cc.num_workers, cc.uplink_bytes_per_sec, cc.downlink_bytes_per_sec);
  net.set_enforce_uplinks(cc.enforce_uplinks);
  // A journaled scheduler crash restores orphaned monotasks without their
  // input bytes, so shuffles dispatched after recovery pull less than their
  // producers' outputs (README.md, "Findings"). Dispatches before the first
  // crash must match the replay exactly; the shortfall after it is reported.
  double first_crash = std::numeric_limits<double>::infinity();
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kSchedCrash) {
      first_crash = e.t;
      break;
    }
  }
  std::vector<double> service;
  service.reserve(net_dispatches.size());
  int64_t flows = 0;
  int64_t mismatched = 0;
  double replay_bytes = 0.0;
  for (const NetDispatch& d : net_dispatches) {
    const auto it = pulls_by_monotask.find(MonotaskKey(d.job, d.monotask));
    if (it == pulls_by_monotask.end()) {
      errors->push_back("traced network dispatch with no replayed pulls");
      break;
    }
    const double bytes = it->second.bytes;
    const WorkerId src = it->second.FlowSource(d.dst);
    replay_bytes += bytes;
    if (d.t < first_crash && std::fabs(bytes - d.bytes) > 1e-9 * std::max(1.0, d.bytes)) {
      ++mismatched;
    }
    if (bytes <= 0.0) {
      continue;  // Worker::Execute starts no flow for an empty pull.
    }
    ++flows;
    sim.ScheduleAt(d.t, [&sim, &net, &service, src, dst = d.dst, bytes] {
      const double begin = sim.Now();
      net.StartFlow(src, dst, bytes,
                    [&sim, &service, begin] { service.push_back(sim.Now() - begin); });
    });
  }
  start = Clock::now();
  const uint64_t replay_events = sim.Run();
  layer->Num("net.replay_s", SecondsSince(start));
  layer->Int("net.replay_events", static_cast<int64_t>(replay_events));
  layer->Int("net.flows", flows);
  layer->Num("net.bytes", replay_bytes);
  layer->Num("net.svc_p90_s", NearestRank(service, 90));
  layer->Num("net.bytes_missing_frac",
             replay_bytes > 0.0 ? (replay_bytes - traced_net_bytes) / replay_bytes : 0.0);
  if (mismatched > 0) {
    errors->push_back(std::to_string(mismatched) +
                      " network dispatches moved other bytes than the replay resolved");
  }
  if (static_cast<int64_t>(service.size()) != flows) {
    errors->push_back("net replay left flows unfinished");
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--workload=", 11) == 0) {
      args->workload = arg + 11;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      char* end = nullptr;
      args->seed = std::strtoull(arg + 7, &end, 10);
      if (end == arg + 7 || *end != '\0') {
        return false;
      }
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args->smoke = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      args->trace = true;
    } else {
      return false;
    }
  }
  return args->workload == "tpch" || args->workload == "scale" || args->workload == "chaos";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=tpch|scale|chaos [--seed=N] [--smoke] [--trace]\n",
                 argv[0]);
    return 2;
  }

  // Set-up is short, so it is timed several times and the median reported.
  Workload workload;
  ExperimentConfig config;
  std::vector<double> setups;
  for (int i = 0; i < 9; ++i) {
    setups.push_back(TimeSetup(args, &workload, &config));
  }
  std::sort(setups.begin(), setups.end());
  // Announced before the run, so a run that aborts still counts its jobs.
  std::printf("jobs_submitted %zu\n", workload.jobs.size());
  std::fflush(stdout);

  ExperimentResult result = RunExperiment(workload, config, "ursa-ejf");

  JsonObject host;
  host.Num("wall_s", result.wall_seconds);
  host.Num("events_per_s", result.wall_seconds > 0.0
                               ? static_cast<double>(result.events_fired) / result.wall_seconds
                               : 0.0);
  host.Num("setup_s", setups[setups.size() / 2]);
  JsonObject sim;
  AddSimMetrics(workload, result, &sim);
  JsonObject layer;
  std::vector<std::string> errors;
  if (args.trace) {
    AddLayerMetrics(workload, config, result, &layer, &errors);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  host.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    error_list += (i > 0 ? ", " : "") + JsonQuote(errors[i]);
  }
  error_list += "]";

  JsonObject out;
  out.Str("workload", args.workload);
  out.Int("seed", static_cast<int64_t>(args.seed));
  out.Raw("traced", args.trace ? "true" : "false");
  out.Raw("errors", error_list);
  out.Raw("host", host.Close());
  out.Raw("sim", sim.Close());
  out.Raw("layer", layer.Close());
  std::printf("%s\n", out.Close().c_str());
  return 0;
}
