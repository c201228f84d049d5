// Shared helpers for the experiment benches: run a workload under several
// schemes and print the paper-style table plus (optionally) utilization
// series in CSV form.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/table.h"
#include "src/driver/experiment.h"
#include "src/obs/trace.h"

namespace ursa {

struct SchemeRun {
  std::string name;
  ExperimentConfig config;
};

// Tracing options shared by the bench binaries; filled from the standard
// --trace-out=FILE / --trace-sample=N / --trace-capacity=EVENTS flags.
struct BenchTraceOptions {
  std::string out;  // Chrome trace JSON path ("" = tracing off).
  int sample = 1;
  size_t capacity = size_t{1} << 20;
  bool enabled() const { return !out.empty(); }
};

// Parses the trace flags out of a bench's argv. Returns false (after
// printing usage) on any unrecognized argument.
inline bool ParseBenchTraceFlags(int argc, char** argv, BenchTraceOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      opts->out = arg + 12;
    } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
      opts->sample = std::atoi(arg + 15);
    } else if (std::strncmp(arg, "--trace-capacity=", 17) == 0) {
      opts->capacity = std::strtoull(arg + 17, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out=FILE] [--trace-sample=N] "
                   "[--trace-capacity=EVENTS]\n",
                   argv[0]);
      return false;
    }
  }
  return true;
}

// Per-scheme trace file name: inserts "-<scheme>" before the extension so a
// multi-scheme bench writes one loadable trace per scheme.
inline std::string TraceFileForScheme(const std::string& out, const std::string& scheme) {
  const size_t dot = out.rfind('.');
  if (dot == std::string::npos || out.find('/', dot) != std::string::npos) {
    return out + "-" + scheme;
  }
  return out.substr(0, dot) + "-" + scheme + out.substr(dot);
}

// Runs every scheme over the workload and prints the Table 2/3/4-style
// summary. Returns the results in scheme order. With tracing enabled, each
// scheme writes its own Chrome trace file and prints the tracer summary.
inline std::vector<ExperimentResult> RunSchemes(const Workload& workload,
                                                std::vector<SchemeRun> schemes,
                                                const std::string& title,
                                                double sample_step = 0.0,
                                                const BenchTraceOptions* trace = nullptr) {
  std::vector<ExperimentResult> results;
  Table table({"scheme", "makespan", "avgJCT", "UEcpu", "SEcpu", "UEmem", "SEmem"});
  for (SchemeRun& scheme : schemes) {
    scheme.config.sample_step = sample_step;
    if (trace != nullptr && trace->enabled()) {
      scheme.config.trace_out = TraceFileForScheme(trace->out, scheme.name);
      scheme.config.trace_sample = trace->sample;
      scheme.config.trace_capacity = trace->capacity;
    }
    ExperimentResult result = RunExperiment(workload, scheme.config, scheme.name);
    table.Row()
        .Cell(scheme.name)
        .Cell(result.makespan(), 0)
        .Cell(result.avg_jct(), 2)
        .Cell(result.efficiency.ue_cpu)
        .Cell(result.efficiency.se_cpu)
        .Cell(result.efficiency.ue_mem)
        .Cell(result.efficiency.se_mem);
    results.push_back(std::move(result));
  }
  table.Print(title);
  for (const ExperimentResult& result : results) {
    // No-op for fault-free runs; otherwise includes recovery work and the
    // speculation outcome/wasted-work tables.
    MetricsCollector::PrintFaultReport(result.faults, result.scheme);
  }
  for (const ExperimentResult& result : results) {
    if (result.trace != nullptr) {
      result.trace->PrintSummary(result.scheme);
    }
  }
  return results;
}

// Pulls `"key": <number>` out of a flat JSON file without a JSON library.
inline bool ReadJsonNumber(const std::string& path, const char* key, double* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  std::string text;
  char chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

// --baseline regression gate: `value` of `key` may be at most 20% worse than
// the number stored in the committed baseline JSON at `path`. Prints the
// verdict with `digits` decimals and returns whether the gate passed.
inline bool PassesBaselineGate(const std::string& path, const char* key, double value,
                               bool higher_is_better, int digits) {
  double base = 0.0;
  if (!ReadJsonNumber(path, key, &base)) {
    std::fprintf(stderr, "FAIL: cannot read %s from %s\n", key, path.c_str());
    return false;
  }
  if (higher_is_better ? value < 0.8 * base : value > 1.2 * base) {
    std::fprintf(stderr, "FAIL: %s %.*fx regressed more than 20%% vs baseline %.*fx\n", key,
                 digits, value, digits, base);
    return false;
  }
  std::printf("baseline gate: %.*fx vs baseline %.*fx (ok)\n", digits, value, digits, base);
  return true;
}

// Writes a bench's JSON summary and returns the process exit code: 1 when the
// file cannot be written or the bench failed, 0 otherwise.
inline int WriteBenchJson(const std::string& path, const std::string& json, bool ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s written (%s)\n", path.c_str(), ok ? "pass" : "FAIL");
  return ok ? 0 : 1;
}

// Prints a utilization window of a result as CSV series rows.
inline void PrintWindow(const ExperimentResult& result, double t0, double t1) {
  const auto& s = result.series;
  if (s.step <= 0.0) {
    return;
  }
  const size_t lo =
      static_cast<size_t>(std::max(0.0, (t0 - s.t0) / s.step));
  const size_t hi = std::min(
      s.cpu.size(), static_cast<size_t>(std::max(0.0, (t1 - s.t0) / s.step)));
  std::printf("series,%s,t,cpu,mem,net\n", result.scheme.c_str());
  for (size_t i = lo; i < hi; ++i) {
    std::printf("%s,%.1f,%.1f,%.1f,%.1f\n", result.scheme.c_str(),
                s.t0 + static_cast<double>(i) * s.step, s.cpu[i], s.mem[i], s.net[i]);
  }
}

}  // namespace ursa

#endif  // BENCH_BENCH_UTIL_H_
