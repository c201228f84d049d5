// Shared builder for SQL-style analytical jobs (TPC-H / TPC-DS shapes):
// a left-deep tree of scans, shuffles and join/aggregate stages, ending in a
// small aggregation plus a disk write of the final result. The scheduler
// only ever sees the DAG shape and data volumes, so matching the paper's
// reported distributions (DAG depth, per-stage parallelism, intermediate
// sizes, skew) exercises the same scheduling decisions as real queries.
#ifndef SRC_WORKLOADS_SQL_BUILDER_H_
#define SRC_WORKLOADS_SQL_BUILDER_H_

#include <string>

#include "src/dag/job.h"

namespace ursa {

struct SqlQueryProfile {
  int query_id = 0;
  // Number of join/aggregate levels after the scans; the op-tree depth the
  // paper reports is roughly depth + 1.
  int depth = 3;
  int tables = 2;
  // Fraction of the database bytes this query reads after column pruning.
  double touched_fraction = 0.15;
  double scan_selectivity = 0.5;
  double join_selectivity = 0.6;
  // CPU byte-equivalents of work per input byte for join/agg stages.
  double cpu_complexity = 2.0;
  // Skew of shuffle partition sizes (1 = uniform).
  double skew = 1.5;
};

struct SqlBuildOptions {
  // Target bytes per scan partition (controls task granularity).
  double bytes_per_partition = 256.0 * 1024 * 1024;
  double true_m2i = 1.1;
  double default_m2i = 2.0;
};

// Builds one SQL job over a database of `db_bytes`.
JobSpec BuildSqlJob(const SqlQueryProfile& profile, double db_bytes,
                    const SqlBuildOptions& options, uint64_t seed, const std::string& name,
                    const std::string& klass);

}  // namespace ursa

#endif  // SRC_WORKLOADS_SQL_BUILDER_H_
