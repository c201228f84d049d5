// Tests for the JM-side resource usage estimation (section 4.2.1): per-read
// input resolution, network pull aggregation per source worker, and the
// min(r * M(j), m2i * I(t)) memory formula. The dense metadata tables and
// the map-free pull resolution are checked bit for bit against std::map
// reference implementations kept here.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/exec/estimator.h"

namespace ursa {
namespace {

std::unique_ptr<Job> ReduceByKeyJob(int in_parts, int out_parts, double part_bytes,
                                    double m2i = 0.0, double declared = 1e9) {
  JobSpec spec;
  spec.name = "job";
  spec.declared_memory_bytes = declared;
  spec.default_m2i = 2.0;
  OpGraph& graph = spec.graph;
  const DataId input = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(in_parts), part_bytes), "in");
  const DataId msg = graph.CreateData(in_parts, "msg");
  const DataId shuffled = graph.CreateData(out_parts, "shuffled");
  const DataId result = graph.CreateData(out_parts, "result");
  OpHandle ser = graph.CreateOp(ResourceType::kCpu, "ser").Read(input).Create(msg);
  if (m2i > 0.0) {
    ser.SetM2i(m2i);
  }
  OpHandle shuffle =
      graph.CreateOp(ResourceType::kNetwork, "shuffle").Read(msg).Create(shuffled);
  OpHandle deser = graph.CreateOp(ResourceType::kCpu, "deser").Read(shuffled).Create(result);
  ser.To(shuffle, DepKind::kSync);
  shuffle.To(deser, DepKind::kAsync);
  return Job::Create(0, std::move(spec));
}

TEST(Estimator, ExternalReadUsesDeclaredSizes) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  // Stage 0 task 0 = ser monotask on partition 0.
  const TaskId t = job->plan.stage(0).tasks[0];
  const MonotaskId m = job->plan.task(t).monotasks[0];
  EXPECT_DOUBLE_EQ(UsageEstimator::MonotaskInputBytes(*job, m, meta, nullptr), 100.0);
}

TEST(Estimator, GatherSumsSlicesAcrossPartitions) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  // The ser outputs are materialized: partitions of `msg` (DataId 1).
  for (int p = 0; p < 4; ++p) {
    meta.Put(job->id, 1, p, 50.0, /*worker=*/p % 2);
  }
  const TaskId t = job->plan.stage(1).tasks[0];
  const MonotaskId net = job->plan.task(t).monotasks[0];
  // Uniform weights: slice 0 of each of 4 partitions = 50 / 2 each = 100.
  EXPECT_NEAR(UsageEstimator::MonotaskInputBytes(*job, net, meta, nullptr), 100.0, 1e-9);
  // Pulls aggregate per source worker: two workers x 50 bytes.
  const auto pulls = UsageEstimator::ResolvePulls(*job, net, meta);
  ASSERT_EQ(pulls.size(), 2u);
  EXPECT_NEAR(pulls[0].bytes, 50.0, 1e-9);
  EXPECT_NEAR(pulls[1].bytes, 50.0, 1e-9);
}

TEST(Estimator, TaskUsagePropagatesThroughInTaskChain) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  for (int p = 0; p < 4; ++p) {
    meta.Put(job->id, 1, p, 60.0, 0);
  }
  const TaskId t = job->plan.stage(1).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, 0.0);
  // Network monotask input: 240 / 2 = 120. The CPU monotask consumes the
  // projected shuffle output (selectivity 1) = 120.
  EXPECT_NEAR(usage.bytes[static_cast<size_t>(ResourceType::kNetwork)], 120.0, 1e-9);
  EXPECT_NEAR(usage.bytes[static_cast<size_t>(ResourceType::kCpu)], 120.0, 1e-9);
  // Task input = root monotask (network) bytes only.
  EXPECT_NEAR(usage.input_bytes, 120.0, 1e-9);
}

TEST(Estimator, MemoryUsesM2iCap) {
  // Big declared memory: the m2i * I(t) term must win.
  const auto job = ReduceByKeyJob(2, 2, 1e9, /*m2i=*/1.5, /*declared=*/1e10);
  MetadataStore meta;
  const TaskId t = job->plan.stage(0).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, /*ready_total=*/2e9);
  EXPECT_NEAR(usage.memory, 1.5 * 1e9, 1.0);
}

TEST(Estimator, MemoryUsesShareOfDeclaredCap) {
  // Small declared memory: r * M(j) must win. r = 0.5 (this task is half
  // the ready input).
  const auto job = ReduceByKeyJob(2, 2, 1e9, /*m2i=*/3.0);
  MetadataStore meta;
  const TaskId t = job->plan.stage(0).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, /*ready_total=*/2e9);
  EXPECT_NEAR(usage.memory, 0.5 * 1e9, 1.0);
}

TEST(Estimator, MemoryHasFloor) {
  const auto job = ReduceByKeyJob(2, 2, 8.0);
  MetadataStore meta;
  const TaskId t = job->plan.stage(0).tasks[0];
  const TaskUsage usage = UsageEstimator::EstimateTask(*job, t, meta, 16.0);
  EXPECT_GE(usage.memory, 16.0 * 1024 * 1024);
}

TEST(MetadataStore, PutGetDrop) {
  MetadataStore meta;
  meta.Put(1, 2, 3, 42.0, 4);
  EXPECT_TRUE(meta.Has(1, 2, 3));
  EXPECT_DOUBLE_EQ(meta.Get(1, 2, 3).bytes, 42.0);
  EXPECT_EQ(meta.Get(1, 2, 3).worker, 4);
  meta.Put(1, 2, 4, 8.0, 0);
  EXPECT_DOUBLE_EQ(meta.Get(1, 2, 3).bytes + meta.Get(1, 2, 4).bytes, 50.0);
  EXPECT_FALSE(meta.Has(1, 2, 5));
  meta.DropJob(1);
  EXPECT_FALSE(meta.Has(1, 2, 3));
  EXPECT_EQ(meta.size(), 0u);
}

TEST(MetadataStore, LargeIdsDoNotAliasAndEditsKeepCount) {
  MetadataStore meta;
  // Job ids wider than 24 bits are distinct jobs.
  meta.Put(1 << 24, 2, 3, 42.0, 4);
  EXPECT_TRUE(meta.Has(1 << 24, 2, 3));
  EXPECT_FALSE(meta.Has(0, 2, 3));
  meta.DropJob(0);
  EXPECT_TRUE(meta.Has(1 << 24, 2, 3));

  // Partitions recorded out of order.
  for (int p : {5, 1, 3}) {
    meta.Put(7, 0, p, 10.0 * p, p);
  }
  for (int p : {1, 3, 5}) {
    EXPECT_DOUBLE_EQ(meta.Get(7, 0, p).bytes, 10.0 * p);
    EXPECT_EQ(meta.Get(7, 0, p).worker, p);
  }
  EXPECT_FALSE(meta.Has(7, 0, 0));
  EXPECT_FALSE(meta.Has(7, 0, 2));
  EXPECT_FALSE(meta.Has(7, 0, 6));
  EXPECT_EQ(meta.size(), 4u);

  // An overwrite replaces the entry without counting it twice.
  meta.Put(7, 0, 3, 99.0, 8);
  EXPECT_EQ(meta.size(), 4u);
  EXPECT_DOUBLE_EQ(meta.Get(7, 0, 3).bytes, 99.0);
  EXPECT_EQ(meta.Get(7, 0, 3).worker, 8);

  // A dead worker's partitions go; a re-run records them again.
  meta.Put(1 << 24, 2, 4, 1.0, 8);
  EXPECT_EQ(meta.DropWorker(8), 2);
  EXPECT_EQ(meta.size(), 3u);
  EXPECT_FALSE(meta.Has(7, 0, 3));
  EXPECT_FALSE(meta.Has(1 << 24, 2, 4));
  meta.Put(7, 0, 3, 5.0, 2);
  EXPECT_EQ(meta.size(), 4u);
  EXPECT_EQ(meta.Get(7, 0, 3).worker, 2);

  // Dropping an unknown job changes nothing.
  meta.DropJob(12345);
  EXPECT_EQ(meta.size(), 4u);
  meta.DropJob(7);
  EXPECT_EQ(meta.size(), 1u);
  EXPECT_TRUE(meta.Has(1 << 24, 2, 3));
}

TEST(MetadataStore, AddJobPresizesAndKeepsEntries) {
  const auto job = ReduceByKeyJob(4, 2, 100.0);
  MetadataStore meta;
  meta.Put(job->id, 1, 2, 5.0, 3);
  meta.AddJob(job->id, job->plan);
  EXPECT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta.Dataset(job->id, 1).size(), 4u);
  EXPECT_EQ(meta.Dataset(job->id, 2).size(), 2u);
  EXPECT_DOUBLE_EQ(meta.Get(job->id, 1, 2).bytes, 5.0);
  EXPECT_FALSE(meta.Has(job->id, 1, 0));
}

// --- Reference oracles: per-partition Get lookups and a std::map keyed by
// source worker. ---

double RefLookupLocal(const std::vector<OutputRecord>* local, DataId data, int partition) {
  if (local == nullptr) {
    return -1.0;
  }
  for (const OutputRecord& rec : *local) {
    if (rec.data == data && rec.partition == partition) {
      return rec.bytes;
    }
  }
  return -1.0;
}

double RefInputBytes(const Job& job, MonotaskId mt_id, const MetadataStore& meta,
                     const std::vector<OutputRecord>* local) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  double total = 0.0;
  for (size_t r = 0; r < cop.reads.size(); ++r) {
    const DataId d = cop.reads[r];
    switch (cop.read_modes[r]) {
      case ReadMode::kExternal:
        total += plan.external_sizes(d)[static_cast<size_t>(mt.index)];
        break;
      case ReadMode::kOnePartition: {
        const double local_bytes = RefLookupLocal(local, d, mt.index);
        total += local_bytes >= 0.0 ? local_bytes : meta.Get(job.id, d, mt.index).bytes;
        break;
      }
      case ReadMode::kGatherSlices: {
        const double weight =
            cop.slice_weights[static_cast<size_t>(mt.index)] / cop.parallelism;
        for (int p = 0; p < plan.dataset_partitions(d); ++p) {
          total += meta.Get(job.id, d, p).bytes * weight;
        }
        break;
      }
    }
  }
  return total;
}

std::vector<RunnableMonotask::Pull> RefPulls(const Job& job, MonotaskId mt_id,
                                             const MetadataStore& meta,
                                             const std::vector<OutputRecord>* local,
                                             WorkerId local_worker) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  std::map<WorkerId, double> per_source;
  auto add_partition = [&](DataId d, int partition, double weight) {
    const double local_bytes = RefLookupLocal(local, d, partition);
    if (local_bytes >= 0.0) {
      per_source[local_worker] += local_bytes * weight;
      return;
    }
    const PartitionInfo& info = meta.Get(job.id, d, partition);
    per_source[info.worker] += info.bytes * weight;
  };
  for (size_t r = 0; r < cop.reads.size(); ++r) {
    const DataId d = cop.reads[r];
    if (cop.read_modes[r] == ReadMode::kOnePartition) {
      add_partition(d, mt.index, 1.0);
    } else if (cop.read_modes[r] == ReadMode::kGatherSlices) {
      const double weight = cop.slice_weights[static_cast<size_t>(mt.index)] / cop.parallelism;
      for (int p = 0; p < plan.dataset_partitions(d); ++p) {
        add_partition(d, p, weight);
      }
    }
  }
  std::vector<RunnableMonotask::Pull> pulls;
  for (const auto& [worker, bytes] : per_source) {
    pulls.push_back(RunnableMonotask::Pull{worker, bytes});
  }
  return pulls;
}

// A network op that gathers slices of two shuffled datasets and reads one
// partition of a third, with skewed slice weights.
std::unique_ptr<Job> GatherJoinJob(Rng& rng, int parts_a, int parts_b, int out_parts) {
  JobSpec spec;
  spec.name = "join";
  spec.declared_memory_bytes = 1e9;
  spec.seed = rng.UniformInt(uint64_t{1} << 40);
  OpGraph& graph = spec.graph;
  const DataId in_a = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts_a), 100.0), "in_a");
  const DataId in_b = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts_b), 100.0), "in_b");
  const DataId in_c = graph.CreateExternalData(
      std::vector<double>(static_cast<size_t>(out_parts), 100.0), "in_c");
  const DataId msg_a = graph.CreateData(parts_a, "msg_a");
  const DataId msg_b = graph.CreateData(parts_b, "msg_b");
  const DataId side = graph.CreateData(out_parts, "side");
  const DataId joined = graph.CreateData(out_parts, "joined");
  OpHandle map_a = graph.CreateOp(ResourceType::kCpu, "map_a").Read(in_a).Create(msg_a);
  OpHandle map_b = graph.CreateOp(ResourceType::kCpu, "map_b").Read(in_b).Create(msg_b);
  OpHandle map_c = graph.CreateOp(ResourceType::kCpu, "map_c").Read(in_c).Create(side);
  OpCostModel skewed;
  skewed.output_skew = rng.Uniform(1.0, 4.0);
  OpHandle join = graph.CreateOp(ResourceType::kNetwork, "join")
                      .Read(msg_a)
                      .Read(msg_b)
                      .Read(side)
                      .Create(joined)
                      .SetCost(skewed);
  map_a.To(join, DepKind::kSync);
  map_b.To(join, DepKind::kSync);
  map_c.To(join, DepKind::kAsync);
  return Job::Create(static_cast<JobId>(rng.UniformInt(uint64_t{1000})), std::move(spec));
}

void ExpectSamePulls(const std::vector<RunnableMonotask::Pull>& got,
                     const std::vector<RunnableMonotask::Pull>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].bytes, want[i].bytes);  // Bit-identical, not just close.
  }
}

class PullOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PullOracle, PullsAndInputBytesMatchMapReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    // Few, many and widely spread sources: both emission orders get used.
    const int workers = std::vector<int>{1, 3, 40, 5000}[rng.UniformInt(uint64_t{4})];
    const int parts_a = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{60}));
    const int parts_b = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{60}));
    const int out_parts = static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{8}));
    const auto job = GatherJoinJob(rng, parts_a, parts_b, out_parts);
    const ExecutionPlan& plan = job->plan;
    MetadataStore meta;
    if (rng.UniformInt(uint64_t{2}) == 0) {
      meta.AddJob(job->id, plan);
    }
    const DataId msg_a = 3;
    const DataId msg_b = 4;
    const DataId side = 5;
    for (DataId d : {msg_a, msg_b, side}) {
      for (int p = plan.dataset_partitions(d) - 1; p >= 0; --p) {
        const WorkerId w = static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(workers)));
        meta.Put(job->id, d, p, rng.Uniform(0.0, 1e9) * rng.Uniform(0.0, 1.0), w);
      }
    }
    for (const MonotaskSpec& mt : plan.monotasks()) {
      if (mt.type != ResourceType::kNetwork) {
        continue;
      }
      ExpectSamePulls(UsageEstimator::ResolvePulls(*job, mt.id, meta),
                      RefPulls(*job, mt.id, meta, nullptr, kInvalidId));
      EXPECT_EQ(UsageEstimator::MonotaskInputBytes(*job, mt.id, meta, nullptr),
                RefInputBytes(*job, mt.id, meta, nullptr));
      // A speculative copy holding its own versions of some partitions.
      std::vector<OutputRecord> local;
      for (DataId d : {msg_a, msg_b, side}) {
        for (int p = 0; p < plan.dataset_partitions(d); ++p) {
          if (rng.UniformInt(uint64_t{4}) == 0) {
            local.push_back(OutputRecord{d, p, rng.Uniform(0.0, 1e9)});
          }
        }
      }
      const WorkerId local_worker =
          static_cast<WorkerId>(rng.UniformInt(static_cast<uint64_t>(workers)));
      ExpectSamePulls(UsageEstimator::ResolvePulls(*job, mt.id, meta, &local, local_worker),
                      RefPulls(*job, mt.id, meta, &local, local_worker));
      EXPECT_EQ(UsageEstimator::MonotaskInputBytes(*job, mt.id, meta, &local),
                RefInputBytes(*job, mt.id, meta, &local));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PullOracle, ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ursa
