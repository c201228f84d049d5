#include "src/workloads/tpch.h"
#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace ursa {

namespace {

// Per-query shape profiles. Depth/table counts follow the structure of the
// actual TPC-H queries (e.g. Q1 is a single-table aggregation, Q8 joins 8
// tables through a deep tree with skewed intermediates, Q14 is a simple
// two-table join). touched_fraction reflects column pruning on the columnar
// format plus filters.
constexpr SqlQueryProfile kTpchProfiles[22] = {
    // id depth tables touched scan_sel join_sel complexity skew
    {1, 1, 1, 0.30, 0.50, 0.50, 2.8, 1.2},    // Q1: big scan + agg
    {2, 4, 4, 0.04, 0.40, 0.40, 1.8, 1.6},    // Q2
    {3, 3, 3, 0.22, 0.45, 0.50, 2.0, 1.4},    // Q3
    {4, 2, 2, 0.12, 0.40, 0.35, 1.6, 1.3},    // Q4
    {5, 5, 4, 0.24, 0.45, 0.50, 2.2, 1.5},    // Q5
    {6, 1, 1, 0.07, 0.30, 0.50, 1.4, 1.1},    // Q6: scan + filter
    {7, 5, 4, 0.22, 0.45, 0.45, 2.2, 1.6},    // Q7
    {8, 7, 4, 0.35, 0.50, 0.60, 3.6, 2.4},    // Q8: many joins & group-by
    {9, 6, 4, 0.40, 0.55, 0.65, 4.2, 2.0},    // Q9: the heaviest query
    {10, 3, 3, 0.24, 0.45, 0.50, 2.0, 1.5},   // Q10
    {11, 3, 3, 0.05, 0.40, 0.40, 1.6, 1.3},   // Q11
    {12, 2, 2, 0.16, 0.35, 0.40, 1.6, 1.2},   // Q12
    {13, 2, 2, 0.12, 0.50, 0.60, 1.8, 1.4},   // Q13
    {14, 2, 2, 0.14, 0.40, 0.45, 1.7, 1.2},   // Q14: simple join
    {15, 3, 2, 0.14, 0.35, 0.40, 1.7, 1.3},   // Q15
    {16, 3, 3, 0.06, 0.40, 0.45, 1.6, 1.3},   // Q16
    {17, 4, 2, 0.16, 0.40, 0.40, 2.0, 1.6},   // Q17
    {18, 4, 3, 0.30, 0.50, 0.55, 3.0, 1.7},   // Q18
    {19, 2, 2, 0.14, 0.35, 0.40, 1.8, 1.3},   // Q19
    {20, 4, 3, 0.10, 0.40, 0.40, 1.8, 1.4},   // Q20
    {21, 5, 4, 0.32, 0.50, 0.55, 3.2, 1.8},   // Q21
    {22, 2, 2, 0.04, 0.30, 0.35, 1.5, 1.2},   // Q22
};

double PickDbBytes(Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.60) {
    return 200.0 * kGiB;
  }
  if (u < 0.90) {
    return 500.0 * kGiB;
  }
  return 1024.0 * kGiB;
}

}  // namespace

JobSpec MakeTpchQuery(int query, double db_bytes, uint64_t seed) {
  CHECK_GE(query, 1);
  CHECK_LE(query, 22);
  SqlQueryProfile profile = kTpchProfiles[query - 1];
  // Calibration against the paper's testbed: queries keep a solo JCT in the
  // 3-297 s band while collectively saturating the 640-core cluster at the
  // 5 s submission interval (load factor > 1, as the paper's makespans
  // imply). Columnar scans feed heavier join/agg pipelines.
  profile.cpu_complexity *= 2.2;
  profile.touched_fraction = std::min(0.5, profile.touched_fraction * 1.5);
  SqlBuildOptions options;
  options.bytes_per_partition = 128.0 * 1024 * 1024;
  return BuildSqlJob(profile, db_bytes, options, seed,
                     "tpch-q" + std::to_string(query), "tpch");
}

Workload MakeTpchWorkload(const TpchWorkloadConfig& config) {
  Workload workload;
  workload.name = "tpch";
  Rng rng(config.seed);
  for (int i = 0; i < config.num_jobs; ++i) {
    const int query = static_cast<int>(rng.UniformInt(static_cast<int64_t>(1), 22));
    const double db = PickDbBytes(rng);
    WorkloadJob job;
    job.spec = MakeTpchQuery(query, db, config.seed * 7919 + static_cast<uint64_t>(i));
    job.spec.name += '-';
    job.spec.name += std::to_string(i);
    job.submit_time = config.submit_interval * i;
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

Workload MakeTpch2Workload(uint64_t seed) {
  // The "hard" subset: deeper DAGs, heavier skew, more irregular utilization
  // (average depth ~7.2 per the paper).
  Workload workload;
  workload.name = "tpch2";
  Rng rng(seed);
  constexpr int kHardQueries[] = {2, 5, 7, 8, 9, 17, 18, 20, 21};
  for (int i = 0; i < 25; ++i) {
    const int query = kHardQueries[rng.UniformInt(sizeof(kHardQueries) / sizeof(int))];
    SqlQueryProfile profile = kTpchProfiles[query - 1];
    profile.depth += static_cast<int>(rng.UniformInt(static_cast<int64_t>(1), 3));
    profile.skew *= rng.Uniform(1.2, 1.8);
    // Same saturation calibration as MakeTpchQuery, and heavier: this burst
    // of 25 jobs must contend for the cluster (paper's makespans are ~600 s)
    // so that ordering and placement ablations have room to differ.
    profile.cpu_complexity *= 2.2;
    profile.touched_fraction =
        std::min(0.5, profile.touched_fraction * 1.5 * rng.Uniform(0.8, 1.3));
    SqlBuildOptions options;
    options.bytes_per_partition = 128.0 * 1024 * 1024;
    WorkloadJob job;
    job.spec = BuildSqlJob(profile, 500.0 * kGiB, options, seed * 104729 + i,
                           "tpch2-q" + std::to_string(query) + "-" + std::to_string(i),
                           "tpch2");
    job.submit_time = 2.0 * i;
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

}  // namespace ursa
