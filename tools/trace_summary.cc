// trace_summary: reads a Chrome trace JSON produced by --trace-out and
// prints per-resource monotask statistics, scheduler-tick aggregates and
// fault events, plus schema diagnostics (unpaired dispatch/finish events).
//
//   trace_summary trace.json
//
// Exit status: 0 on a well-formed trace, 1 on parse errors or schema
// violations (unpaired events), 2 on usage errors.
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "src/common/table.h"
#include "src/obs/trace.h"
#include "src/obs/trace_reader.h"

namespace {

double Arg(const ursa::ChromeTraceEvent& e, const char* key) {
  const auto it = e.args.find(key);
  return it != e.args.end() ? it->second : 0.0;
}

std::string StringArg(const ursa::ChromeTraceEvent& e, const char* key) {
  const auto it = e.string_args.find(key);
  return it != e.string_args.end() ? it->second : std::string();
}

// The finish kind an exported span's "status" names.
ursa::TraceEventKind FinishKind(const std::string& status) {
  if (status == "complete") {
    return ursa::TraceEventKind::kComplete;
  }
  if (status == "fail") {
    return ursa::TraceEventKind::kFail;
  }
  if (status == "cancelled") {
    return ursa::TraceEventKind::kCancelled;
  }
  return ursa::TraceEventKind::kLost;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ursa;
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_summary <trace.json>\n");
    return 2;
  }
  const std::string path = argv[1];
  ChromeTrace trace;
  std::string error;
  if (!ReadChromeTraceFile(path, &trace, &error)) {
    std::fprintf(stderr, "trace_summary: %s\n", error.c_str());
    return 1;
  }

  std::map<std::string, MonotaskTally> by_resource;
  std::map<uint64_t, const ChromeTraceEvent*> open;  // Dispatches awaiting an end.
  std::map<std::string, int64_t> faults;
  std::map<std::string, int64_t> spec_events;
  std::map<std::string, int64_t> admission_events;
  double admit_latency_sum = 0.0;
  int64_t admits = 0;
  int64_t ticks = 0;
  int64_t candidates = 0;
  int64_t placed = 0;
  double total_wall_us = 0.0;
  double max_wall_us = 0.0;
  int64_t orphan_ends = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;
  bool any_ts = false;

  for (const ChromeTraceEvent& e : trace.events) {
    if (e.ph == "M") {
      continue;
    }
    if (!any_ts) {
      first_ts = e.ts;
      any_ts = true;
    }
    last_ts = e.ts > last_ts ? e.ts : last_ts;
    if (e.cat == "monotask") {
      const std::string resource = StringArg(e, "resource");
      MonotaskTally& tally = by_resource[resource];
      if (e.ph == "i") {
        tally.Queued();
      } else if (e.ph == "b") {
        tally.Dispatched(Arg(e, "queue_wait_s"));
        open[e.id] = &e;
      } else if (e.ph == "e") {
        const auto it = open.find(e.id);
        if (it == open.end()) {
          ++orphan_ends;
        } else {
          open.erase(it);
        }
        tally.Finished(FinishKind(StringArg(e, "status")), Arg(e, "service_s"),
                       Arg(e, "counted") != 0.0);
      }
    } else if (e.cat == "scheduler" && e.name == "tick") {
      ++ticks;
      candidates += static_cast<int64_t>(Arg(e, "candidates"));
      placed += static_cast<int64_t>(Arg(e, "placed"));
      const double wall = Arg(e, "wall_us");
      total_wall_us += wall;
      max_wall_us = wall > max_wall_us ? wall : max_wall_us;
    } else if (e.cat == "fault") {
      ++faults[e.name];
    } else if (e.cat == "spec") {
      ++spec_events[e.name];
    } else if (e.cat == "admission") {
      ++admission_events[e.name];
      if (e.name == "admit") {
        admit_latency_sum += Arg(e, "a");
        ++admits;
      }
    }
  }

  std::printf("%s: %zu events, [%.3f s, %.3f s]\n", path.c_str(), trace.events.size(),
              first_ts / 1e6, last_ts / 1e6);

  Table counts({"resource", "queued", "dispatched", "completed", "failed", "lost",
                "cancelled", "busy(s)", "wasted(s)"});
  Table latencies({"resource", "qwait-mean(ms)", "qwait-p50", "qwait-p95", "qwait-p99",
                   "svc-mean(ms)", "svc-p50", "svc-p95", "svc-p99"});
  for (const auto& [resource, tally] : by_resource) {
    const Tracer::ResourceSummary rs = tally.Result();
    const Summary& wait = rs.queue_wait;
    const Summary& service = rs.service;
    counts.Row()
        .Cell(resource)
        .Cell(rs.queued)
        .Cell(rs.dispatches)
        .Cell(rs.completes)
        .Cell(rs.fails)
        .Cell(rs.lost)
        .Cell(rs.cancelled)
        .Cell(rs.busy_time, 2)
        .Cell(rs.wasted_time, 2);
    latencies.Row()
        .Cell(resource)
        .Cell(wait.mean * 1e3, 3)
        .Cell(wait.p50 * 1e3, 3)
        .Cell(wait.p95 * 1e3, 3)
        .Cell(wait.p99 * 1e3, 3)
        .Cell(service.mean * 1e3, 3)
        .Cell(service.p50 * 1e3, 3)
        .Cell(service.p95 * 1e3, 3)
        .Cell(service.p99 * 1e3, 3);
  }
  counts.Print("monotask counts");
  latencies.Print("monotask latencies");

  if (ticks > 0) {
    Table tick_table({"ticks", "candidates", "placed", "avgWall(us)", "maxWall(us)"});
    tick_table.Row()
        .Cell(ticks)
        .Cell(candidates)
        .Cell(placed)
        .Cell(total_wall_us / static_cast<double>(ticks), 1)
        .Cell(max_wall_us, 1);
    tick_table.Print("scheduler ticks");
  }
  if (!faults.empty()) {
    Table fault_table({"fault event", "count"});
    for (const auto& [name, count] : faults) {
      fault_table.Row().Cell(name).Cell(count);
    }
    fault_table.Print("fault events");
  }
  if (!spec_events.empty()) {
    Table spec_table({"speculation event", "count"});
    for (const auto& [name, count] : spec_events) {
      spec_table.Row().Cell(name).Cell(count);
    }
    spec_table.Print("speculation events");
  }
  if (!admission_events.empty()) {
    Table admission_table({"admission event", "count"});
    for (const auto& [name, count] : admission_events) {
      admission_table.Row().Cell(name).Cell(count);
    }
    admission_table.Print("admission events");
    if (admits > 0) {
      std::printf("avg admission latency: %.3f s over %" PRId64 " admits\n",
                  admit_latency_sum / static_cast<double>(admits), admits);
    }
  }

  // Schema diagnostics. Unpaired dispatches are expected only when the ring
  // wrapped (the matching end was emitted after the snapshot) - never in a
  // complete trace.
  if (!open.empty() || orphan_ends > 0) {
    std::fprintf(stderr,
                 "trace_summary: %zu dispatch events without a matching end, "
                 "%" PRId64 " end events without a matching dispatch\n",
                 open.size(), orphan_ends);
    return 1;
  }
  return 0;
}
