// Open-loop workload source (DESIGN.md section 11): continuous job arrivals
// that do not wait for completions, the serving-style load pattern the
// admission controller and backpressure ladder are built for.
//
// Arrivals come from a seeded Poisson process (rate jobs/s) or from a
// trace file of inter-arrival gaps (one per line, cycled when the run is
// longer than the trace). Each arrival is assigned to a tenant by weighted
// deterministic draw; tenants carry a priority tier and an SLO that the
// generated JobSpec inherits. Jobs themselves are synthetic alternating
// Type 1 / Type 2 jobs (section 5.3) scaled by `job_template`.
//
// The source is a pull-based iterator: the experiment driver asks for the
// next gap and next job, which lets it stretch gaps by the scheduler's
// throttle factor (client backoff) without breaking determinism — the
// arrival *sequence* is fixed by the seed, only its timing shifts.
#ifndef SRC_WORKLOADS_OPENLOOP_H_
#define SRC_WORKLOADS_OPENLOOP_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/workloads/synthetic.h"
#include "src/workloads/workload.h"

namespace ursa {

// One tenant's share of the open-loop arrival stream.
struct TenantSpec {
  std::string name;
  double weight = 1.0;  // Arrival share relative to the other tenants.
  int tier = 0;         // Priority tier; 0 is the highest.
  double slo = 0.0;     // Per-job SLO seconds (0 = admission default).
};

struct OpenLoopConfig {
  bool enabled = false;
  uint64_t seed = 2020;
  // Aggregate Poisson arrival rate in jobs/s; ignored when trace_file is set.
  double arrival_rate = 0.5;
  // Inter-arrival gap trace: whitespace-separated non-negative seconds,
  // cycled when the run outlasts the trace. Overrides arrival_rate.
  std::string trace_file;
  // Stop generating after this many arrivals.
  int max_jobs = 100;
  // Empty -> a single "default" tenant with tier 0 and no SLO.
  std::vector<TenantSpec> tenants;
  // Shape of the generated synthetic jobs; `type` alternates 1/2 per arrival.
  SyntheticJobParams job_template;
};

// Parses `spec` of the form "name:weight:tier:slo[,name:weight:tier:slo...]"
// (weight/tier/slo optional, e.g. "batch,interactive:2:0:60"). Returns false
// and sets *error on malformed input.
bool ParseTenantSpecs(const std::string& spec, std::vector<TenantSpec>* out,
                      std::string* error);

// Loads an inter-arrival trace file. Returns false and sets *error when the
// file is unreadable, empty, or contains a negative or non-numeric entry.
bool LoadInterarrivalTrace(const std::string& path, std::vector<double>* gaps,
                           std::string* error);

class OpenLoopSource {
 public:
  explicit OpenLoopSource(const OpenLoopConfig& config);

  // True once max_jobs arrivals were generated.
  bool Exhausted() const;
  // Next raw inter-arrival gap in seconds (before any throttling).
  double NextGap();
  // Builds the next arriving job's spec (tenant, tier, SLO filled in).
  JobSpec NextJob();

  int generated() const { return generated_; }
  const std::vector<TenantSpec>& tenants() const { return tenants_; }

 private:
  const TenantSpec& PickTenant();

  OpenLoopConfig config_;
  std::vector<TenantSpec> tenants_;  // Normalized: never empty.
  double total_weight_ = 0.0;
  std::vector<double> trace_gaps_;   // Empty -> Poisson arrivals.
  size_t trace_pos_ = 0;
  Rng arrival_rng_;
  Rng tenant_rng_;
  int generated_ = 0;
};

}  // namespace ursa

#endif  // SRC_WORKLOADS_OPENLOOP_H_
