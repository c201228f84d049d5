// Scheduler-core scaling benchmark (DESIGN.md section 12): a worker-count
// sweep measuring simulator throughput (events/sec), placement throughput
// (placements/sec), and p99/max per-tick wall latency of the default hot
// path (incremental load maintenance + bucketed placement scan).
//
// The workload is placement-stress by design (MakePlacementStressWorkload):
// many single-stage CPU-only jobs with wide fan-out, so the scheduler's
// per-task worker scan dominates rather than the shuffle/flow machinery.
// Every row must place all of its monotasks.
//
// Default (CI smoke): {100, 300} workers. --full extends the sweep to
// {1000, 3000, 10000} — the 10k-worker point runs >= 1M monotasks. A
// machine-readable summary is written to --json-out (default
// BENCH_scale.json) including `scanned_per_call_300`: BestWorker scan
// entries examined per call at 300 workers. It is a deterministic count
// (a linear scan would examine all 300), so it transfers across machines
// exactly.
//
//   bench_scale [--seed=N] [--full] [--json-out=FILE] [--baseline=FILE]
//
// With --baseline, the run fails (exit 1) when its scanned_per_call_300
// rises more than 20% above the baseline file's value.
#include <algorithm>
#include <cstdio>
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

struct Row {
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
  int64_t load_refreshes = 0;
  int64_t bestworker_calls = 0;
  int64_t workers_scanned = 0;
  double makespan = 0.0;
  double avg_jct = 0.0;
};

Row RunRow(const Options& opt, int workers) {
  Row row;
  row.workers = workers;
  const Workload workload = MakePlacementStressWorkload(workers, opt.seed);
  row.jobs = static_cast<int>(workload.jobs.size());
  // Every synthetic job here has the same structure, so one compiled plan
  // gives the per-job monotask count.
  row.monotasks = static_cast<int64_t>(
                      Job::Create(0, workload.jobs.front().spec)->plan.monotasks().size()) *
                  row.jobs;

  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = workers;
  config.time_limit = 5e6;
  // Tracing captures per-tick wall latency; monotask events are sampled out
  // so the ring retains every tick even on the million-monotask points.
  config.trace = true;
  config.trace_sample = 1 << 20;
  config.trace_capacity = size_t{1} << 22;

  const ExperimentResult result = RunExperiment(workload, config, "ursa-ejf");
  row.events = result.events_fired;
  row.wall_seconds = result.wall_seconds;
  row.events_per_sec =
      row.wall_seconds > 0.0 ? static_cast<double>(row.events) / row.wall_seconds : 0.0;
  row.makespan = result.makespan();
  row.avg_jct = result.avg_jct();
  const UrsaScheduler::SchedulerCounters& sc = result.scheduler_counters;
  row.ticks = sc.ticks;
  row.load_refreshes = sc.load_refreshes;
  row.bestworker_calls = sc.bestworker_calls;
  row.workers_scanned = sc.workers_scanned;
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

std::string RowJson(const Row& r) {
  return Format("{\"workers\": %d, \"jobs\": %d, "
                "\"monotasks\": %lld, \"events\": %llu, \"wall_seconds\": %.3f, "
                "\"events_per_sec\": %.1f, \"placed\": %lld, "
                "\"placements_per_sec\": %.1f, \"p99_tick_ms\": %.3f, "
                "\"max_tick_ms\": %.3f, \"ticks\": %lld, \"load_refreshes\": %lld, "
                "\"bestworker_calls\": %lld, \"workers_scanned\": %lld, "
                "\"makespan\": %.3f, \"avg_jct\": %.3f}",
                r.workers, r.jobs, static_cast<long long>(r.monotasks),
                static_cast<unsigned long long>(r.events), r.wall_seconds,
                r.events_per_sec, static_cast<long long>(r.placed), r.placements_per_sec,
                r.p99_tick_ms, r.max_tick_ms, static_cast<long long>(r.ticks),
                static_cast<long long>(r.load_refreshes),
                static_cast<long long>(r.bestworker_calls),
                static_cast<long long>(r.workers_scanned), r.makespan, r.avg_jct);
}

const Row* FindRow(const std::vector<Row>& rows, int workers) {
  for (const Row& r : rows) {
    if (r.workers == workers) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  FlagSet flags;
  flags.Num("seed", &opt.seed, "workload seed");
  flags.Bool("full", &opt.full, "extend the sweep to 1000, 3000 and 10000 workers");
  flags.Str("json-out", &opt.json_out, "JSON summary file");
  flags.Str("baseline", &opt.baseline, "gate scanned_per_call_300 against this JSON");
  if (const int rc = flags.Parse(argc, argv)) {
    return rc;
  }

  std::vector<int> sweep = {100, 300};
  if (opt.full) {
    sweep.insert(sweep.end(), {1000, 3000, 10000});
  }

  std::vector<Row> rows;
  Table table({"workers", "monotasks", "events", "wall s", "events/s", "placements/s",
               "p99 tick ms", "scanned"});
  bool ok = true;
  for (const int workers : sweep) {
    std::printf("running @ %d workers...\n", workers);
    std::fflush(stdout);
    rows.push_back(RunRow(opt, workers));
    const Row& r = rows.back();
    table.Row()
        .Cell(static_cast<int64_t>(r.workers))
        .Cell(r.monotasks)
        .Cell(static_cast<int64_t>(r.events))
        .Cell(r.wall_seconds, 2)
        .Cell(r.events_per_sec, 0)
        .Cell(r.placements_per_sec, 0)
        .Cell(r.p99_tick_ms, 3)
        .Cell(r.workers_scanned);
    if (r.placed != r.monotasks) {
      std::fprintf(stderr, "FAIL: placed %lld of %lld monotasks at %d workers\n",
                   static_cast<long long>(r.placed), static_cast<long long>(r.monotasks),
                   r.workers);
      ok = false;
    }
  }
  table.Print("scheduler-core scaling sweep (seed " + std::to_string(opt.seed) + ")");

  const Row* smoke = FindRow(rows, 300);
  const double scanned_per_call =
      smoke != nullptr && smoke->bestworker_calls > 0
          ? static_cast<double>(smoke->workers_scanned) /
                static_cast<double>(smoke->bestworker_calls)
          : 0.0;
  std::printf("scanned_per_call_300 (scan entries per BestWorker call @300): %.3f\n",
              scanned_per_call);
  if (opt.full) {
    const Row* r10k = FindRow(rows, 10000);
    if (r10k != nullptr && r10k->monotasks < 1000000) {
      std::fprintf(stderr, "FAIL: 10k-worker point ran %lld monotasks (< 1M)\n",
                   static_cast<long long>(r10k->monotasks));
      ok = false;
    }
  }

  // Regression gate: scan entries per call are a pure function of the seeded
  // workload, so the committed baseline transfers across machines exactly.
  if (!opt.baseline.empty() && !PassesBaselineGate(opt.baseline, "scanned_per_call_300",
                                                   scanned_per_call, false, 2)) {
    ok = false;
  }

  return WriteBenchReport(opt.json_out, "scale",
                          {{"seed", Format("%llu", static_cast<unsigned long long>(opt.seed))},
                           {"full", opt.full ? "true" : "false"},
                           {"scanned_per_call_300", Format("%.3f", scanned_per_call)}},
                          rows, RowJson, ok);
}
