// Overload benchmark (DESIGN.md section 11): open-loop serving swept from
// well under to well past cluster saturation.
//
// A closed calibration batch first measures the cluster's job throughput;
// its rate defines 1x saturation. The sweep then runs the open-loop driver
// at configurable multiples (default 0.5x 1x 1.5x 2x 3x) of that rate with
// SLO-aware admission control, three tenants (interactive/batch/scavenger
// with distinct tiers and SLOs), and backpressure-driven arrival throttling.
//
// Reported per point: offered/served jobs, shed counts, goodput, JCT
// percentiles of the served jobs, SLO attainment, Jain fairness, the
// pending-queue high-water mark and backpressure activity. A machine-
// readable summary is written to --json-out (default BENCH_overload.json).
//
// Hard assertions (exit 1 on violation):
//   * conservation: submitted == completed + shed at every point;
//   * bounded queue: pending high-water <= --max-pending at every point;
//   * graceful overload: goodput at the top multiple >= 90% of the peak
//     goodput across the sweep (no collapse past saturation);
//   * determinism: re-running the top multiple with the same seed produces
//     a byte-identical JSON point.
//
//   bench_overload [--seed=N] [--jobs=N] [--workers=N] [--mults=CSV]
//                  [--max-pending=N] [--json-out=FILE] [--trace-out=FILE]
//                  [--chaos]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/fault/fault_injector.h"
#include "src/workloads/openloop.h"
#include "src/workloads/synthetic.h"

namespace {

using namespace ursa;

struct Options {
  uint64_t seed = 42;
  int jobs = 120;      // Arrivals per sweep point.
  int workers = 8;
  int max_pending = 32;
  std::vector<double> mults;  // From --mults.
  std::string json_out = "BENCH_overload.json";
  std::string trace_out;
  bool chaos = false;
};

bool ParseMults(const std::string& csv, std::vector<double>* out) {
  out->clear();
  const char* p = csv.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || v <= 0.0) {
      return false;
    }
    out->push_back(v);
    p = *end == ',' ? end + 1 : end;
    if (*end != '\0' && *end != ',') {
      return false;
    }
  }
  return !out->empty();
}

// The shape every job in this bench has: small enough that a sweep point
// finishes quickly, large enough to exercise multi-stage placement.
SyntheticJobParams JobTemplate(int workers) {
  SyntheticJobParams params;
  params.stages = 3;
  params.parallelism = workers * 4;
  params.type1_task_bytes = 48.0 * 1024 * 1024;
  params.complexity = 8.0;
  return params;
}

// One sweep point serialized as a stable JSON object; byte-compared between
// repeated runs for the determinism assertion.
struct Point {
  double mult = 0.0;
  double arrival_rate = 0.0;
  std::string json;
  int submitted = 0;
  int completed = 0;
  int64_t shed = 0;
  int max_pending_depth = 0;
  int64_t level_changes = 0;
  double goodput = 0.0;
  double p95_jct = 0.0;
};

Point RunPoint(const Options& opt, double mult, double rate) {
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = opt.workers;
  config.ursa.spec.enabled = true;  // Degradation must have something to shed.
  config.ursa.admission.enabled = true;
  config.ursa.admission.max_pending = opt.max_pending;
  // Serving-style SLOs a small factor above the unloaded JCT, and a
  // utilization bound near 1: the checkUvalue gate then caps concurrency at
  // what the cluster can actually finish in time, queueing the rest.
  config.ursa.admission.default_slo = 15.0;
  config.ursa.admission.utilization_bound = 1.2;
  // Backoff must not push the offered load below saturation at the top
  // multiple, or goodput dips for lack of work instead of overload.
  config.ursa.admission.max_throttle_factor = 2.0;
  config.open_loop.enabled = true;
  config.open_loop.seed = opt.seed;
  config.open_loop.arrival_rate = rate;
  config.open_loop.max_jobs = opt.jobs;
  config.open_loop.job_template = JobTemplate(opt.workers);
  std::string error;
  CHECK(ParseTenantSpecs("interactive:2:0:8,batch:1:1:20,scavenger:1:2:0",
                         &config.open_loop.tenants, &error))
      << error;
  if (opt.chaos) {
    FaultEvent crash;
    crash.kind = FaultKind::kCrashRecover;
    crash.time = 30.0;
    crash.worker = 1;
    crash.downtime = 20.0;
    config.fault_plan.events.push_back(crash);
    FaultEvent degrade;
    degrade.kind = FaultKind::kDegrade;
    degrade.time = 10.0;
    degrade.worker = 2;
    degrade.factor = 0.4;
    degrade.duration = 60.0;
    config.fault_plan.events.push_back(degrade);
  }
  if (!opt.trace_out.empty()) {
    char slug[32];
    std::snprintf(slug, sizeof(slug), "%gx", mult);
    config.trace_out = TraceFileForScheme(opt.trace_out, slug);
  }

  char name[32];
  std::snprintf(name, sizeof(name), "%.2gx", mult);
  const Workload empty;  // Open-loop mode generates its own arrivals.
  const ExperimentResult result = RunExperiment(empty, config, name);

  Point point;
  point.mult = mult;
  point.arrival_rate = rate;
  point.submitted = result.submitted;
  point.completed = result.tenants.total_completed;
  point.shed = result.admission.shed;
  point.max_pending_depth = result.admission.max_pending_depth;
  point.level_changes = result.admission.level_changes;
  point.goodput = result.tenants.goodput;
  std::vector<double> jcts;
  double slo_weighted = 0.0;
  for (const JobRecord& r : result.records) {
    if (r.completed()) {
      jcts.push_back(r.jct());
    }
  }
  for (const auto& t : result.tenants.tenants) {
    slo_weighted += t.slo_attainment * t.completed;
  }
  const Summary jct = Summarize(jcts);
  point.p95_jct = jct.p95;
  const double slo_attainment =
      point.completed > 0 ? slo_weighted / point.completed : 1.0;

  point.json = Format(
      "    {\"mult\": %.6g, \"arrival_rate\": %.6g, \"submitted\": %d, "
      "\"completed\": %d, \"shed\": %lld, \"slo_rejects\": %lld, "
      "\"evictions\": %lld, \"deferrals\": %lld, \"goodput\": %.6g, "
      "\"p50_jct\": %.6g, \"p95_jct\": %.6g, \"p99_jct\": %.6g, "
      "\"slo_attainment\": %.6g, \"jain_fairness\": %.6g, "
      "\"max_pending_depth\": %d, \"level_changes\": %lld, "
      "\"avg_admission_latency\": %.6g, \"makespan\": %.6g}",
      mult, rate, point.submitted, point.completed,
      static_cast<long long>(point.shed),
      static_cast<long long>(result.admission.slo_rejects),
      static_cast<long long>(result.admission.evictions),
      static_cast<long long>(result.admission.deferrals), point.goodput, jct.p50,
      jct.p95, jct.p99, slo_attainment, result.tenants.jain_fairness,
      point.max_pending_depth, static_cast<long long>(result.admission.level_changes),
      result.admission.avg_admission_latency(), result.makespan());
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string mults = "0.5,1,1.5,2,3";
  FlagSet flags;
  flags.Num("seed", &opt.seed, "arrival and workload seed");
  flags.Num("jobs", &opt.jobs, 1, 10000000, "arrivals per sweep point");
  flags.Num("workers", &opt.workers, 1, 100000, "cluster size");
  flags.Str("mults", &mults, "comma-separated saturation multiples");
  flags.Num("max-pending", &opt.max_pending, 1, 10000000, "pending-queue bound");
  flags.Str("json-out", &opt.json_out, "JSON summary file");
  flags.Str("trace-out", &opt.trace_out, "Chrome trace JSON, one file per multiple");
  flags.Bool("chaos", &opt.chaos, "a worker crash and a slowdown at every point");
  if (const int rc = flags.Parse(argc, argv)) {
    return rc;
  }
  if (!ParseMults(mults, &opt.mults)) {
    return flags.Reject("mults", mults);
  }

  // Calibration: a closed batch of the same jobs, all submitted at t = 0;
  // its completion rate defines 1x saturation for the sweep.
  const int calibration_jobs = 24;
  Workload batch;
  batch.name = "overload-calibration";
  const SyntheticJobParams job_template = JobTemplate(opt.workers);
  for (int i = 0; i < calibration_jobs; ++i) {
    SyntheticJobParams params = job_template;
    params.type = i % 2 == 0 ? 1 : 2;
    WorkloadJob wj;
    wj.spec = BuildSyntheticJob(params, opt.seed + static_cast<uint64_t>(i) * 7919);
    wj.spec.klass = "openloop";
    wj.submit_time = 0.0;
    batch.jobs.push_back(std::move(wj));
  }
  ExperimentConfig cal_config = UrsaEjfConfig();
  cal_config.cluster.num_workers = opt.workers;
  const ExperimentResult cal = RunExperiment(batch, cal_config, "calibration");
  const double sat_rate = static_cast<double>(calibration_jobs) / cal.makespan();
  std::printf("calibration: %d jobs in %.1f s -> saturation %.3f jobs/s\n",
              calibration_jobs, cal.makespan(), sat_rate);

  std::vector<Point> points;
  Table table({"mult", "rate/s", "submitted", "completed", "shed", "goodput/s",
               "p95JCT", "maxPending", "levelChanges"});
  for (const double mult : opt.mults) {
    points.push_back(RunPoint(opt, mult, mult * sat_rate));
    const Point& p = points.back();
    table.Row()
        .Cell(mult, 2)
        .Cell(p.arrival_rate, 3)
        .Cell(static_cast<int64_t>(p.submitted))
        .Cell(static_cast<int64_t>(p.completed))
        .Cell(p.shed)
        .Cell(p.goodput, 3)
        .Cell(p.p95_jct, 2)
        .Cell(static_cast<int64_t>(p.max_pending_depth))
        .Cell(p.level_changes);
  }
  table.Print("overload sweep (" + std::to_string(opt.workers) + " workers, " +
              std::to_string(opt.jobs) + " arrivals/point" +
              (opt.chaos ? ", chaos on" : "") + ")");

  bool ok = true;
  // Conservation + bounded queue at every point.
  for (const Point& p : points) {
    if (p.completed + static_cast<int>(p.shed) != p.submitted) {
      std::fprintf(stderr, "FAIL: %.2gx: %d submitted != %d completed + %lld shed\n",
                   p.mult, p.submitted, p.completed, static_cast<long long>(p.shed));
      ok = false;
    }
    if (p.max_pending_depth > opt.max_pending) {
      std::fprintf(stderr, "FAIL: %.2gx: pending high-water %d exceeds bound %d\n",
                   p.mult, p.max_pending_depth, opt.max_pending);
      ok = false;
    }
  }
  // Graceful overload: the top multiple keeps >= 90% of the peak goodput.
  double peak = 0.0;
  for (const Point& p : points) {
    peak = std::max(peak, p.goodput);
  }
  const Point& top = points.back();
  if (peak > 0.0 && top.goodput < 0.9 * peak) {
    std::fprintf(stderr,
                 "FAIL: goodput collapsed past saturation: %.3f/s at %.2gx vs "
                 "peak %.3f/s (retention %.1f%% < 90%%)\n",
                 top.goodput, top.mult, peak, 100.0 * top.goodput / peak);
    ok = false;
  } else if (peak > 0.0) {
    std::printf("goodput retention at %.2gx: %.1f%% of peak\n", top.mult,
                100.0 * top.goodput / peak);
  }
  // Determinism: the top multiple re-run with the same seed must serialize
  // identically (JCTs, shed counts, backpressure activity — everything).
  const Point replay = RunPoint(opt, top.mult, top.arrival_rate);
  if (replay.json != top.json) {
    std::fprintf(stderr, "FAIL: re-run of %.2gx diverged from the first run\n", top.mult);
    std::fprintf(stderr, "  first:  %s\n  replay: %s\n", top.json.c_str(),
                 replay.json.c_str());
    ok = false;
  }

  std::string json =
      Format("{\n  \"bench\": \"overload\",\n  \"seed\": %llu,\n"
             "  \"workers\": %d,\n  \"jobs_per_point\": %d,\n"
             "  \"max_pending\": %d,\n"
             "  \"chaos\": %s,\n  \"saturation_rate\": %.6g,\n  \"points\": [\n",
             static_cast<unsigned long long>(opt.seed), opt.workers, opt.jobs,
             opt.max_pending, opt.chaos ? "true" : "false", sat_rate);
  for (size_t i = 0; i < points.size(); ++i) {
    json += points[i].json;
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += Format("  ],\n  \"goodput_retention\": %.6g,\n  \"deterministic\": %s,\n"
                 "  \"pass\": %s\n}\n",
                 peak > 0.0 ? top.goodput / peak : 1.0,
                 replay.json == top.json ? "true" : "false", ok ? "true" : "false");
  return WriteBenchJson(opt.json_out, json, ok);
}
