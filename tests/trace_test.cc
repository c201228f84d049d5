// Trace-schema validation (DESIGN.md section 8): the exported Chrome trace
// must be parseable, every dispatch span must close exactly once, timestamps
// must be monotonic, and trace-derived busy time must agree with the
// StepTracker integrals the metrics pipeline reports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/driver/experiment.h"
#include "src/obs/trace.h"
#include "src/obs/trace_reader.h"
#include "src/scheduler/ursa_scheduler.h"
#include "src/workloads/tpch.h"

namespace ursa {
namespace {

Workload SmallTpch(int jobs) {
  TpchWorkloadConfig wc;
  wc.num_jobs = jobs;
  wc.submit_interval = 1.0;
  wc.seed = 31;
  return MakeTpchWorkload(wc);
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    config_.num_workers = 4;
    config_.worker.cores = 8;
    config_.worker.cpu_byte_rate = 100e6;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  // Runs a small TPC-H mix with tracing and returns the simulated end time.
  double RunTraced(Tracer* tracer, int jobs = 4,
                   const UrsaSchedulerConfig& sc = UrsaSchedulerConfig()) {
    cluster_->set_tracer(tracer);
    scheduler_ = std::make_unique<UrsaScheduler>(&sim_, cluster_.get(), sc);
    scheduler_->set_tracer(tracer);
    const Workload workload = SmallTpch(jobs);
    for (size_t i = 0; i < workload.jobs.size(); ++i) {
      sim_.ScheduleAt(workload.jobs[i].submit_time, [this, &workload, i] {
        scheduler_->SubmitJob(Job::Create(static_cast<JobId>(i), workload.jobs[i].spec));
      });
    }
    sim_.Run();
    EXPECT_TRUE(scheduler_->AllJobsFinished());
    return sim_.Now();
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<UrsaScheduler> scheduler_;
};

TEST_F(TraceTest, ChromeTraceParsesPairsAndIsMonotonic) {
  Tracer tracer;
  RunTraced(&tracer);
  ASSERT_GT(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::ostringstream oss;
  tracer.WriteChromeTrace(oss);
  ChromeTrace trace;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(oss.str(), &trace, &error)) << error;
  ASSERT_GT(trace.events.size(), 0u);

  // Every dispatch ("b") closes exactly once ("e"), and vice versa.
  std::set<uint64_t> open;
  std::map<std::string, int64_t> ends_by_status;
  double last_ts = -1.0;
  for (const ChromeTraceEvent& e : trace.events) {
    if (e.ph == "M") {
      continue;
    }
    EXPECT_GE(e.ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = e.ts;
    if (e.ph == "b") {
      EXPECT_TRUE(open.insert(e.id).second) << "duplicate dispatch id " << e.id;
    } else if (e.ph == "e") {
      EXPECT_EQ(open.erase(e.id), 1u) << "end without dispatch, id " << e.id;
      ++ends_by_status[e.string_args.at("status")];
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " dispatches never closed";
  EXPECT_GT(ends_by_status["complete"], 0);
  EXPECT_EQ(ends_by_status["lost"], 0);  // No faults in this run.

  // The scheduler ticked and placed every task it scored at least once.
  const Tracer::TickSummary& ticks = tracer.tick_summary();
  EXPECT_GT(ticks.ticks, 0);
  EXPECT_GT(ticks.placed, 0);
  EXPECT_GE(ticks.candidates, ticks.placed);
}

// Trace-derived busy time equals the metrics pipeline's occupancy
// integrals. cpu_busy_ is +1 per counted CPU monotask for its whole service
// time, so the integral is the total CPU busy seconds; same for disk. Both
// sum the same span durations, so they agree to rounding; the JSON export
// prints 9 significant digits per span.
void ExpectBusyTimeMatchesIntegrals(const Cluster& cluster, const Tracer& tracer,
                                    double end) {
  ASSERT_EQ(tracer.dropped(), 0u);
  double cpu_integral = 0.0;
  double disk_integral = 0.0;
  for (int w = 0; w < cluster.size(); ++w) {
    cpu_integral += cluster.worker(w).cpu_busy_tracker().IntegralTo(end);
    disk_integral += cluster.worker(w).disk_busy_tracker().IntegralTo(end);
  }
  ASSERT_GT(cpu_integral, 0.0);

  const auto summaries = tracer.SummarizeMonotasks();
  const auto& cpu = summaries[static_cast<size_t>(ResourceType::kCpu)];
  const auto& disk = summaries[static_cast<size_t>(ResourceType::kDisk)];
  EXPECT_NEAR(cpu.busy_time, cpu_integral, 1e-9 * cpu_integral);
  if (disk_integral > 0.0) {
    EXPECT_NEAR(disk.busy_time, disk_integral, 1e-9 * disk_integral);
  }

  // The exported JSON carries the same totals (reader round-trip).
  std::ostringstream oss;
  tracer.WriteChromeTrace(oss);
  ChromeTrace trace;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(oss.str(), &trace, &error)) << error;
  double json_cpu_busy = 0.0;
  for (const ChromeTraceEvent& e : trace.events) {
    if (e.ph == "e" && e.string_args.at("resource") == std::string("cpu") &&
        e.args.at("counted") != 0.0) {
      json_cpu_busy += e.args.at("service_s");
    }
  }
  EXPECT_NEAR(json_cpu_busy, cpu_integral, 1e-6 * cpu_integral);
}

TEST_F(TraceTest, BusyTimeMatchesStepTrackerIntegrals) {
  Tracer tracer;
  const double end = RunTraced(&tracer);
  ExpectBusyTimeMatchesIntegrals(*cluster_, tracer, end);
}

// Lost spans (cut short by a worker kill) and cancelled spans (losers of
// speculative races) held their core until they ended, so they count too.
TEST_F(TraceTest, BusyTimeMatchesStepTrackerIntegralsUnderKillsAndSpeculation) {
  Tracer tracer;
  UrsaSchedulerConfig sc;
  sc.spec.enabled = true;
  sc.spec.slowdown_threshold = 1.3;
  sim_.Schedule(1.0, [&] { cluster_->worker(0).set_speed_factor(0.05); });
  sim_.Schedule(8.0, [&] { scheduler_->FailWorker(2); });
  sim_.Schedule(12.0, [&] { cluster_->worker(2).Recover(); });
  const double end = RunTraced(&tracer, 4, sc);
  int64_t lost = 0;
  int64_t cancelled = 0;
  for (const auto& rs : tracer.SummarizeMonotasks()) {
    lost += rs.lost;
    cancelled += rs.cancelled;
  }
  EXPECT_GT(lost, 0);
  EXPECT_GT(cancelled, 0);
  ExpectBusyTimeMatchesIntegrals(*cluster_, tracer, end);
}

TEST_F(TraceTest, SamplingIsStickyPerMonotask) {
  TracerConfig tc;
  tc.sample = 3;
  Tracer tracer(tc);
  RunTraced(&tracer);
  ASSERT_EQ(tracer.dropped(), 0u);

  // Sampled-out monotasks emit nothing; sampled ones emit their full
  // lifecycle, so dispatches still pair with finishes.
  const auto summaries = tracer.SummarizeMonotasks();
  int64_t dispatches = 0;
  int64_t finishes = 0;
  for (const auto& rs : summaries) {
    EXPECT_EQ(rs.queued, rs.dispatches);
    dispatches += rs.dispatches;
    finishes += rs.completes + rs.fails + rs.lost;
  }
  EXPECT_GT(dispatches, 0);
  EXPECT_EQ(dispatches, finishes);
}

TEST_F(TraceTest, ExperimentConfigWiresTracingAndWritesFile) {
  const std::string path = ::testing::TempDir() + "/ursa_trace_test.json";
  ExperimentConfig config = UrsaEjfConfig();
  config.cluster.num_workers = 4;
  config.cluster.worker.cores = 8;
  config.cluster.worker.cpu_byte_rate = 100e6;
  config.trace_out = path;
  config.trace_sample = 1;
  const ExperimentResult result = RunExperiment(SmallTpch(2), config, "traced");
  ASSERT_NE(result.trace, nullptr);
  EXPECT_GT(result.trace->size(), 0u);

  ChromeTrace trace;
  std::string error;
  ASSERT_TRUE(ReadChromeTraceFile(path, &trace, &error)) << error;
  EXPECT_GT(trace.events.size(), 0u);
  std::remove(path.c_str());
}

TEST(TracerRingTest, OldestEventsDropWhenCapacityExceeded) {
  TracerConfig tc;
  tc.capacity = 4;
  Tracer tracer(tc);
  for (int i = 0; i < 10; ++i) {
    tracer.WorkerEvent(static_cast<double>(i), TraceEventKind::kWorkerFail, i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].t, events[i - 1].t) << "snapshot must be oldest-first";
  }
  EXPECT_DOUBLE_EQ(events.back().t, 9.0);
}

TEST(TraceReaderTest, RejectsMalformedJson) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\": }", &value, &error));
  EXPECT_FALSE(ParseJson("[1, 2", &value, &error));
  EXPECT_FALSE(ParseJson("{} trailing", &value, &error));
  EXPECT_TRUE(ParseJson("{\"a\": [1, 2.5, true, null, \"s\\n\"]}", &value, &error)) << error;
  const JsonValue* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);

  ChromeTrace trace;
  EXPECT_FALSE(ParseChromeTrace("{\"noTraceEvents\": []}", &trace, &error));
  EXPECT_TRUE(ParseChromeTrace("[{\"name\":\"x\",\"ph\":\"i\",\"ts\":1.0}]", &trace, &error));
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].name, "x");
}

}  // namespace
}  // namespace ursa
