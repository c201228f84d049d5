#include "src/workloads/sql_builder.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace ursa {

namespace {

// Per-stage task-count bounds.
constexpr int kMaxParallelism = 640;
constexpr int kMinParallelism = 4;
// User memory declaration M(j) = kDeclaredMemoryFactor * touched bytes.
constexpr double kDeclaredMemoryFactor = 1.5;

int Parallelism(double bytes, const SqlBuildOptions& options) {
  const int p = static_cast<int>(std::ceil(bytes / options.bytes_per_partition));
  return std::clamp(p, kMinParallelism, kMaxParallelism);
}

// External dataset with mild per-partition jitter (HDFS blocks are nearly
// uniform; real skew enters at shuffles).
DataId MakeExternalTable(OpGraph& graph, double bytes, int partitions, Rng& rng,
                         const std::string& name) {
  std::vector<double> sizes(static_cast<size_t>(partitions));
  double total = 0.0;
  for (double& s : sizes) {
    s = rng.Uniform(0.85, 1.15);
    total += s;
  }
  for (double& s : sizes) {
    s *= bytes / total;
  }
  return graph.CreateExternalData(std::move(sizes), name);
}

}  // namespace

JobSpec BuildSqlJob(const SqlQueryProfile& profile, double db_bytes,
                    const SqlBuildOptions& options, uint64_t seed, const std::string& name,
                    const std::string& klass) {
  CHECK_GE(profile.depth, 1);
  CHECK_GE(profile.tables, 1);
  Rng rng(seed);
  JobSpec spec;
  spec.name = name;
  spec.klass = klass;
  spec.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  spec.true_m2i = options.true_m2i;
  spec.default_m2i = options.default_m2i;
  OpGraph& graph = spec.graph;

  const double touched = db_bytes * profile.touched_fraction;
  spec.declared_memory_bytes =
      std::max(touched * kDeclaredMemoryFactor, 4.0 * 1024 * 1024 * 1024);

  // Table byte shares: the first (fact) table dominates.
  std::vector<double> table_bytes(static_cast<size_t>(profile.tables));
  if (profile.tables == 1) {
    table_bytes[0] = touched;
  } else {
    table_bytes[0] = touched * 0.6;
    const double rest = touched * 0.4 / (profile.tables - 1);
    for (int t = 1; t < profile.tables; ++t) {
      table_bytes[static_cast<size_t>(t)] = rest;
    }
  }

  // Scans: external read + filter/project CPU op per table.
  struct ScanResult {
    OpHandle op;
    DataId output;
    int parallelism;
  };
  std::vector<ScanResult> scans;
  for (int t = 0; t < profile.tables; ++t) {
    const double bytes = table_bytes[static_cast<size_t>(t)];
    const int p = Parallelism(bytes, options);
    const DataId input =
        MakeExternalTable(graph, bytes, p, rng, "table" + std::to_string(t));
    const DataId filtered = graph.CreateData(p, "scan" + std::to_string(t));
    OpCostModel cost;
    cost.cpu_complexity = profile.cpu_complexity * rng.Uniform(0.5, 0.9);
    cost.output_selectivity = profile.scan_selectivity * rng.Uniform(0.7, 1.3);
    cost.fixed_cpu_work = 2e6;  // Decompression / codegen setup.
    OpHandle scan = graph.CreateOp(ResourceType::kCpu, "scan" + std::to_string(t))
                        .Read(input)
                        .Create(filtered)
                        .SetCost(cost)
                        .SetM2i(2.0);
    scans.push_back(ScanResult{scan, filtered, p});
  }

  // Left-deep join/aggregate tree over `depth` shuffle levels.
  OpHandle current_op = scans[0].op;
  DataId current_data = scans[0].output;
  double current_bytes = table_bytes[0] * profile.scan_selectivity;
  int next_scan = 1;
  for (int level = 0; level < profile.depth; ++level) {
    const bool last = level == profile.depth - 1;
    int p = Parallelism(current_bytes, options);
    if (last) {
      p = std::max(kMinParallelism, p / 8);  // Final aggregation is narrow.
    }
    const std::string suffix = std::to_string(level);
    const DataId shuffled = graph.CreateData(p, "shuffled" + suffix);
    OpCostModel shuffle_cost;
    shuffle_cost.output_skew = profile.skew;
    OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "shuffle" + suffix)
                           .Read(current_data)
                           .Create(shuffled)
                           .SetCost(shuffle_cost);
    current_op.To(shuffle, DepKind::kSync);

    const DataId joined = graph.CreateData(p, "joined" + suffix);
    OpCostModel join_cost;
    join_cost.cpu_complexity = profile.cpu_complexity * rng.Uniform(0.7, 1.4);
    join_cost.output_selectivity =
        last ? 0.05 : profile.join_selectivity * rng.Uniform(0.6, 1.3);
    join_cost.fixed_cpu_work = 1e6;
    OpHandle join = graph.CreateOp(ResourceType::kCpu, (last ? "agg" : "join") + suffix)
                        .Read(shuffled)
                        .Create(joined)
                        .SetCost(join_cost)
                        // Paper: m2i = 1 + s for joins, s = join selectivity.
                        .SetM2i(last ? 2.0 : 1.0 + profile.join_selectivity);
    shuffle.To(join, DepKind::kAsync);

    // Join in one extra scanned table per level while available.
    if (!last && next_scan < profile.tables) {
      ScanResult& side = scans[static_cast<size_t>(next_scan)];
      const DataId side_shuffled = graph.CreateData(p, "sideshuf" + suffix);
      OpHandle side_shuffle =
          graph.CreateOp(ResourceType::kNetwork, "sideshuffle" + suffix)
              .Read(side.output)
              .Create(side_shuffled)
              .SetCost(shuffle_cost);
      side.op.To(side_shuffle, DepKind::kSync);
      join.Read(side_shuffled);
      side_shuffle.To(join, DepKind::kAsync);
      current_bytes += table_bytes[static_cast<size_t>(next_scan)] * profile.scan_selectivity;
      ++next_scan;
    }

    current_bytes *= join_cost.output_selectivity;
    current_op = join;
    current_data = joined;
  }

  // Final result written to disk (section 4.2.1: output far smaller than
  // input; disk is not a bottleneck).
  const int out_p = graph.dataset(current_data).partitions;
  OpHandle write = graph.CreateOp(ResourceType::kDisk, "write")
                       .Read(current_data)
                       .SetParallelism(out_p);
  current_op.To(write, DepKind::kAsync);

  graph.Validate();
  return spec;
}

}  // namespace ursa
