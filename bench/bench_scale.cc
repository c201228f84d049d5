// Scheduler-core scaling benchmark (DESIGN.md section 12): a worker-count
// sweep measuring simulator throughput (events/sec), placement throughput
// (placements/sec), and p99/max per-tick wall latency under the two hot-path
// configurations:
//
//   fast — incremental load maintenance + bucketed placement scan + calendar
//          event queue (the defaults);
//   seed — per-tick full load rebuild + linear BestWorker scan + binary-heap
//          queue (the original implementation, kept as the reference).
//
// The workload is placement-stress by design: many single-stage CPU-only
// jobs with wide fan-out, so the scheduler's per-task worker scan — O(W) per
// task in the seed — dominates, rather than the shuffle/flow machinery the
// two configurations share. Both modes run the same seeded workload and must
// produce identical schedules (asserted on the shared 300-worker point).
//
// Default (CI smoke): fast@{100,300} + seed@300. --full extends the sweep to
// fast@{1000,3000,10000} + seed@1000 — the 10k-worker point runs >= 1M
// monotasks. A machine-readable summary is written to --json-out (default
// BENCH_scale.json) including `speedup_smoke` (fast/seed events-per-sec at
// 300 workers — the regression-gated figure, machine-independent because
// both sides run on the same host) and, with --full, `speedup_1k` and
// `speedup_10k_vs_seed_1k` (the acceptance figure: the 10k fast run's
// events/sec over the 1k seed run's).
//
//   bench_scale [--seed=N] [--full] [--json-out=FILE] [--baseline=FILE]
//
// With --baseline, the run fails (exit 1) when its speedup_smoke drops more
// than 20% below the baseline file's value.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/workloads/synthetic.h"

namespace {

using namespace ursa;

struct Options {
  uint64_t seed = 42;
  bool full = false;
  std::string json_out = "BENCH_scale.json";
  std::string baseline;
};

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--seed=N] [--full] [--json-out=FILE] [--baseline=FILE]\n",
               argv0);
  return 2;
}

struct Row {
  std::string mode;  // "fast" | "seed"
  int workers = 0;
  int jobs = 0;
  int64_t monotasks = 0;
  uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  int64_t placed = 0;
  double placements_per_sec = 0.0;
  double p99_tick_ms = 0.0;
  double max_tick_ms = 0.0;
  int64_t ticks = 0;
  int64_t full_rebuilds = 0;
  int64_t load_refreshes = 0;
  int64_t bestworker_calls = 0;
  int64_t workers_scanned = 0;
  int64_t scoring_truncated = 0;
  double makespan = 0.0;
  double avg_jct = 0.0;
};

// Placement-stress workload: `workers`/4 single-stage CPU jobs of 512 tasks
// each, closely staggered. Task count scales linearly with the cluster so
// per-worker load stays constant across sweep points.
Workload MakeScaleWorkload(int workers, uint64_t seed, int* out_jobs) {
  const int jobs = std::max(4, workers / 4);
  *out_jobs = jobs;
  Workload workload;
  workload.name = "scale-" + std::to_string(workers);
  for (int i = 0; i < jobs; ++i) {
    SyntheticJobParams params;
    params.type = i % 2 == 0 ? 1 : 2;
    params.stages = 1;  // CPU-only: no shuffle, placement dominates.
    params.parallelism = 512;
    params.type1_task_bytes = 24.0 * 1024 * 1024;
    params.complexity = 4.0;
    WorkloadJob wj;
    wj.spec = BuildSyntheticJob(params, seed + static_cast<uint64_t>(i) * 7919);
    wj.spec.name += "-" + std::to_string(i);
    wj.submit_time = 0.25 * i;
    workload.jobs.push_back(std::move(wj));
  }
  return workload;
}

Row RunRow(const Options& opt, const std::string& mode, int workers) {
  Row row;
  row.mode = mode;
  row.workers = workers;
  const Workload workload = MakeScaleWorkload(workers, opt.seed, &row.jobs);
  // Every synthetic job here has the same structure, so one compiled plan
  // gives the per-job monotask count.
  row.monotasks = static_cast<int64_t>(
                      Job::Create(0, workload.jobs.front().spec)->plan.monotasks().size()) *
                  row.jobs;

  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = workers;
  const bool fast = mode == "fast";
  config.ursa.incremental_loads = fast;
  config.ursa.prune_placement = fast;
  config.queue_kind = fast ? EventQueueKind::kCalendar : EventQueueKind::kBinaryHeap;
  // The candidate budget is a liveness safety valve, not part of the
  // algorithm; lift it so both modes score every candidate and the sweep
  // measures the scan itself.
  config.ursa.max_scored_pairs_per_tick = size_t{1} << 40;
  config.time_limit = 5e6;
  // Tracing captures per-tick wall latency; monotask events are sampled out
  // so the ring retains every tick even on the million-monotask points.
  config.trace = true;
  config.trace_sample = 1 << 20;
  config.trace_capacity = size_t{1} << 22;

  const ExperimentResult result = RunExperiment(workload, config, mode);
  row.events = result.events_fired;
  row.wall_seconds = result.wall_seconds;
  row.events_per_sec =
      row.wall_seconds > 0.0 ? static_cast<double>(row.events) / row.wall_seconds : 0.0;
  row.makespan = result.makespan();
  row.avg_jct = result.avg_jct();
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  row.ticks = sc.ticks;
  row.full_rebuilds = sc.full_rebuilds;
  row.load_refreshes = sc.load_refreshes;
  row.bestworker_calls = sc.bestworker_calls;
  row.workers_scanned = sc.workers_scanned;
  row.scoring_truncated = sc.scoring_truncated;
  const Tracer::TickSummary& ticks = result.trace->tick_summary();
  row.placed = ticks.placed;
  row.placements_per_sec =
      row.wall_seconds > 0.0 ? static_cast<double>(row.placed) / row.wall_seconds : 0.0;
  row.max_tick_ms = ticks.max_wall_us / 1e3;
  std::vector<double> tick_us;
  for (const TraceEvent& event : result.trace->Snapshot()) {
    if (event.kind == TraceEventKind::kTick) {
      tick_us.push_back(event.wall_us);
    }
  }
  if (!tick_us.empty()) {
    std::sort(tick_us.begin(), tick_us.end());
    const size_t idx =
        std::min(tick_us.size() - 1,
                 static_cast<size_t>(0.99 * static_cast<double>(tick_us.size())));
    row.p99_tick_ms = tick_us[idx] / 1e3;
  }
  return row;
}

void AppendRowJson(std::string* out, const Row& r) {
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "    {\"mode\": \"%s\", \"workers\": %d, \"jobs\": %d, "
                "\"monotasks\": %lld, \"events\": %llu, \"wall_seconds\": %.3f, "
                "\"events_per_sec\": %.1f, \"placed\": %lld, "
                "\"placements_per_sec\": %.1f, \"p99_tick_ms\": %.3f, "
                "\"max_tick_ms\": %.3f, \"ticks\": %lld, \"full_rebuilds\": %lld, "
                "\"load_refreshes\": %lld, \"bestworker_calls\": %lld, "
                "\"workers_scanned\": %lld, \"scoring_truncated\": %lld, "
                "\"makespan\": %.3f, \"avg_jct\": %.3f}",
                r.mode.c_str(), r.workers, r.jobs, static_cast<long long>(r.monotasks),
                static_cast<unsigned long long>(r.events), r.wall_seconds,
                r.events_per_sec, static_cast<long long>(r.placed), r.placements_per_sec,
                r.p99_tick_ms, r.max_tick_ms, static_cast<long long>(r.ticks),
                static_cast<long long>(r.full_rebuilds),
                static_cast<long long>(r.load_refreshes),
                static_cast<long long>(r.bestworker_calls),
                static_cast<long long>(r.workers_scanned),
                static_cast<long long>(r.scoring_truncated), r.makespan, r.avg_jct);
  *out += buf;
}

const Row* FindRow(const std::vector<Row>& rows, const char* mode, int workers) {
  for (const Row& r : rows) {
    if (r.mode == mode && r.workers == workers) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--full") == 0) {
      opt.full = true;
    } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
      opt.json_out = arg + 11;
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      opt.baseline = arg + 11;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      return Usage(argv[0]);
    }
  }

  struct Point {
    const char* mode;
    int workers;
  };
  std::vector<Point> sweep = {{"fast", 100}, {"fast", 300}, {"seed", 300}};
  if (opt.full) {
    sweep.push_back({"fast", 1000});
    sweep.push_back({"fast", 3000});
    sweep.push_back({"fast", 10000});
    sweep.push_back({"seed", 1000});
  }

  std::vector<Row> rows;
  Table table({"mode", "workers", "monotasks", "events", "wall s", "events/s",
               "placements/s", "p99 tick ms", "scanned"});
  for (const Point& point : sweep) {
    std::printf("running %s @ %d workers...\n", point.mode, point.workers);
    std::fflush(stdout);
    rows.push_back(RunRow(opt, point.mode, point.workers));
    const Row& r = rows.back();
    table.Row()
        .Cell(r.mode)
        .Cell(static_cast<int64_t>(r.workers))
        .Cell(r.monotasks)
        .Cell(static_cast<int64_t>(r.events))
        .Cell(r.wall_seconds, 2)
        .Cell(r.events_per_sec, 0)
        .Cell(r.placements_per_sec, 0)
        .Cell(r.p99_tick_ms, 3)
        .Cell(r.workers_scanned);
  }
  table.Print("scheduler-core scaling sweep (seed " + std::to_string(opt.seed) + ")");

  bool ok = true;
  // Mode equivalence: fast and seed at 300 workers ran the same workload and
  // must produce the same schedule — same placements, same simulated
  // timeline — or one of the hot-path layers changed behavior.
  const Row* fast300 = FindRow(rows, "fast", 300);
  const Row* seed300 = FindRow(rows, "seed", 300);
  if (fast300 != nullptr && seed300 != nullptr) {
    if (fast300->placed != seed300->placed || fast300->events != seed300->events ||
        fast300->makespan != seed300->makespan || fast300->avg_jct != seed300->avg_jct ||
        fast300->bestworker_calls != seed300->bestworker_calls) {
      std::fprintf(stderr,
                   "FAIL: fast and seed diverged at 300 workers "
                   "(placed %lld/%lld, events %llu/%llu, makespan %.6f/%.6f)\n",
                   static_cast<long long>(fast300->placed),
                   static_cast<long long>(seed300->placed),
                   static_cast<unsigned long long>(fast300->events),
                   static_cast<unsigned long long>(seed300->events), fast300->makespan,
                   seed300->makespan);
      ok = false;
    }
  }
  const double speedup_smoke =
      (fast300 != nullptr && seed300 != nullptr && seed300->events_per_sec > 0.0)
          ? fast300->events_per_sec / seed300->events_per_sec
          : 0.0;
  std::printf("speedup_smoke (fast/seed events-per-sec @300): %.2fx\n", speedup_smoke);

  double speedup_1k = 0.0;
  double speedup_10k = 0.0;
  if (opt.full) {
    const Row* fast1k = FindRow(rows, "fast", 1000);
    const Row* fast10k = FindRow(rows, "fast", 10000);
    const Row* seed1k = FindRow(rows, "seed", 1000);
    if (fast1k != nullptr && seed1k != nullptr && seed1k->events_per_sec > 0.0) {
      speedup_1k = fast1k->events_per_sec / seed1k->events_per_sec;
      std::printf("speedup_1k (fast/seed events-per-sec @1000): %.2fx\n", speedup_1k);
    }
    if (fast10k != nullptr && seed1k != nullptr && seed1k->events_per_sec > 0.0) {
      speedup_10k = fast10k->events_per_sec / seed1k->events_per_sec;
      std::printf("speedup_10k_vs_seed_1k: %.2fx (10k run: %lld monotasks)\n", speedup_10k,
                  static_cast<long long>(fast10k->monotasks));
      if (fast10k->monotasks < 1000000) {
        std::fprintf(stderr, "FAIL: 10k-worker point ran %lld monotasks (< 1M)\n",
                     static_cast<long long>(fast10k->monotasks));
        ok = false;
      }
      if (speedup_10k < 10.0) {
        std::fprintf(stderr,
                     "FAIL: 10k fast events/sec is %.2fx the 1k seed run (< 10x)\n",
                     speedup_10k);
        ok = false;
      }
    }
  }

  // Regression gate: the fast/seed ratio is within-host, so it transfers
  // across machines in a way raw events/sec does not.
  if (!opt.baseline.empty() &&
      !PassesBaselineGate(opt.baseline, "speedup_smoke", speedup_smoke, true, 2)) {
    ok = false;
  }

  std::string json = "{\n  \"bench\": \"scale\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"seed\": %llu,\n  \"full\": %s,\n  \"speedup_smoke\": %.3f,\n",
                static_cast<unsigned long long>(opt.seed), opt.full ? "true" : "false",
                speedup_smoke);
  json += buf;
  if (opt.full) {
    std::snprintf(buf, sizeof(buf),
                  "  \"speedup_1k\": %.3f,\n  \"speedup_10k_vs_seed_1k\": %.3f,\n",
                  speedup_1k, speedup_10k);
    json += buf;
  }
  std::snprintf(buf, sizeof(buf), "  \"pass\": %s,\n  \"rows\": [\n", ok ? "true" : "false");
  json += buf;
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendRowJson(&json, rows[i]);
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  return WriteBenchJson(opt.json_out, json, ok);
}
