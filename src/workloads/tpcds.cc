#include "src/workloads/tpcds.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace ursa {

namespace {

// TPC-DS has 99 queries; we synthesize profiles procedurally from the query
// number so a given query id always has the same shape. The depth
// distribution is tuned to the paper's report: range 5-43, mean ~9.
SqlQueryProfile TpcdsProfile(int query) {
  Rng rng(0xDC0DE + static_cast<uint64_t>(query) * 65537);
  SqlQueryProfile profile;
  profile.query_id = query;
  // Heavy-tailed depth: most queries 4-11, a few very deep (up to ~42).
  const double u = rng.NextDouble();
  if (u < 0.80) {
    profile.depth = static_cast<int>(rng.UniformInt(static_cast<int64_t>(4), 11));
  } else if (u < 0.95) {
    profile.depth = static_cast<int>(rng.UniformInt(static_cast<int64_t>(12), 22));
  } else {
    profile.depth = static_cast<int>(rng.UniformInt(static_cast<int64_t>(23), 42));
  }
  profile.tables = static_cast<int>(rng.UniformInt(static_cast<int64_t>(2), 5));
  profile.touched_fraction = rng.Uniform(0.05, 0.35);
  profile.scan_selectivity = rng.Uniform(0.3, 0.55);
  // Deep plans must keep selectivity high enough that late stages still have
  // work (paper: alternating high/low parallelism along the DAG).
  profile.join_selectivity =
      profile.depth > 12 ? rng.Uniform(0.88, 0.97) : rng.Uniform(0.75, 0.90);
  profile.cpu_complexity = rng.Uniform(1.8, 3.0);
  profile.skew = rng.Uniform(1.2, 2.2);
  return profile;
}

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

JobSpec MakeTpcdsQuery(int query, double db_bytes, uint64_t seed) {
  CHECK_GE(query, 1);
  CHECK_LE(query, 99);
  SqlBuildOptions options;
  // Partitioned tables: many small partitions, especially visible on the
  // small databases (the paper blames this for Y+S overheads on TPC-DS).
  options.bytes_per_partition = 96.0 * 1024 * 1024;
  SqlQueryProfile profile = TpcdsProfile(query);
  // Same cluster-saturation calibration as TPC-H (see MakeTpchQuery).
  profile.cpu_complexity *= 2.0;
  profile.touched_fraction = std::min(0.5, profile.touched_fraction * 1.4);
  return BuildSqlJob(profile, db_bytes, options, seed,
                     "tpcds-q" + std::to_string(query), "tpcds");
}

Workload MakeTpcdsWorkload(const TpcdsWorkloadConfig& config) {
  Workload workload;
  workload.name = "tpcds";
  Rng rng(config.seed);
  for (int i = 0; i < config.num_jobs; ++i) {
    const int query = static_cast<int>(rng.UniformInt(static_cast<int64_t>(1), 99));
    WorkloadJob job;
    job.spec = MakeTpcdsQuery(query, PickDbBytes(rng),
                              config.seed * 15485863 + static_cast<uint64_t>(i));
    job.spec.name += '-';
    job.spec.name += std::to_string(i);
    job.submit_time = config.submit_interval * i;
    workload.jobs.push_back(std::move(job));
  }
  return workload;
}

}  // namespace ursa
