#include "src/exec/estimator.h"

#include <algorithm>
#include <span>

#include "src/common/logging.h"

namespace ursa {

namespace {

double LookupLocal(const std::vector<OutputRecord>* local, DataId data, int partition) {
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

// Partition `p` of a dataset's slots (MetadataStore::Dataset); it must have
// been recorded.
const PartitionInfo& Committed(std::span<const PartitionInfo> slots, JobId job, DataId data,
                               int p) {
  const size_t i = static_cast<size_t>(p);
  CHECK(i < slots.size() && slots[i].worker != kInvalidId)
      << "missing partition metadata: job " << job << " data " << data << " partition " << p;
  return slots[i];
}

// Per-source byte sums of one ResolvePulls call, indexed by WorkerId. The
// buffer is reused across calls; `touched` lists the workers the current
// call added to, so only those are read out and reset.
struct SourceSums {
  std::vector<double> bytes;
  std::vector<char> seen;
  std::vector<WorkerId> touched;

  void Add(WorkerId worker, double value) {
    const size_t w = static_cast<size_t>(worker);
    if (w >= bytes.size()) {
      bytes.resize(w + 1, 0.0);
      seen.resize(w + 1, 0);
    }
    if (seen[w] == 0) {
      seen[w] = 1;
      bytes[w] = 0.0;
      touched.push_back(worker);
    }
    bytes[w] += value;
  }

  // Emits one pull per touched worker in WorkerId order and resets the
  // buffer. Few sources spread over a wide id range are sorted; otherwise
  // the id range is swept.
  std::vector<RunnableMonotask::Pull> Drain() {
    std::vector<RunnableMonotask::Pull> pulls;
    pulls.reserve(touched.size());
    const auto [lo, hi] = std::minmax_element(touched.begin(), touched.end());
    if (lo != touched.end()) {
      const size_t range = static_cast<size_t>(*hi - *lo) + 1;
      if (touched.size() * 8 < range) {
        std::sort(touched.begin(), touched.end());
        for (WorkerId worker : touched) {
          pulls.push_back(RunnableMonotask::Pull{worker, bytes[static_cast<size_t>(worker)]});
          seen[static_cast<size_t>(worker)] = 0;
        }
      } else {
        for (size_t w = static_cast<size_t>(*lo); w <= static_cast<size_t>(*hi); ++w) {
          if (seen[w] != 0) {
            pulls.push_back(RunnableMonotask::Pull{static_cast<WorkerId>(w), bytes[w]});
            seen[w] = 0;
          }
        }
      }
    }
    touched.clear();
    return pulls;
  }
};

SourceSums& ReusedSourceSums() {
  thread_local SourceSums sums;
  return sums;
}

}  // namespace

double UsageEstimator::MonotaskInputBytes(const Job& job, MonotaskId mt_id,
                                          const MetadataStore& meta,
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
        const double local_bytes = LookupLocal(local, d, mt.index);
        if (local_bytes >= 0.0) {
          total += local_bytes;
        } else {
          total += meta.Get(job.id, d, mt.index).bytes;
        }
        break;
      }
      case ReadMode::kGatherSlices: {
        const std::span<const PartitionInfo> slots = meta.Dataset(job.id, d);
        const int partitions = plan.dataset_partitions(d);
        const double weight =
            cop.slice_weights[static_cast<size_t>(mt.index)] / cop.parallelism;
        for (int p = 0; p < partitions; ++p) {
          total += Committed(slots, job.id, d, p).bytes * weight;
        }
        break;
      }
    }
  }
  return total;
}

std::vector<OutputRecord> UsageEstimator::ComputeOutputs(const Job& job, MonotaskId mt_id,
                                                         double input_bytes) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  std::vector<OutputRecord> out;
  out.reserve(cop.creates.size());
  // Skew weights are applied where the skew physically materializes: at
  // gather time for shuffles (already folded into input_bytes), at output
  // time for CPU/disk producers.
  double weight = 1.0;
  if (cop.type != ResourceType::kNetwork) {
    weight = cop.slice_weights[static_cast<size_t>(mt.index)];
  }
  for (DataId d : cop.creates) {
    OutputRecord rec;
    rec.data = d;
    rec.partition = mt.index;
    rec.bytes = input_bytes * cop.cost.output_selectivity * weight;
    out.push_back(rec);
  }
  return out;
}

std::vector<RunnableMonotask::Pull> UsageEstimator::ResolvePulls(const Job& job,
                                                                 MonotaskId mt_id,
                                                                 const MetadataStore& meta) {
  return ResolvePulls(job, mt_id, meta, nullptr, kInvalidId);
}

std::vector<RunnableMonotask::Pull> UsageEstimator::ResolvePulls(
    const Job& job, MonotaskId mt_id, const MetadataStore& meta,
    const std::vector<OutputRecord>* local, WorkerId local_worker) {
  const ExecutionPlan& plan = job.plan;
  const MonotaskSpec& mt = plan.monotask(mt_id);
  const CollapsedOp& cop = plan.cop(mt.cop);
  CHECK(cop.type == ResourceType::kNetwork);
  // Each source's sum is built in read-then-partition order, and the pulls
  // come out in WorkerId order, so the pull list is deterministic.
  SourceSums& per_source = ReusedSourceSums();
  auto add_partition = [&](std::span<const PartitionInfo> slots, DataId d, int partition,
                           double weight) {
    const double local_bytes = LookupLocal(local, d, partition);
    if (local_bytes >= 0.0) {
      per_source.Add(local_worker, local_bytes * weight);
      return;
    }
    const PartitionInfo& info = Committed(slots, job.id, d, partition);
    per_source.Add(info.worker, info.bytes * weight);
  };
  for (size_t r = 0; r < cop.reads.size(); ++r) {
    const DataId d = cop.reads[r];
    const std::span<const PartitionInfo> slots = meta.Dataset(job.id, d);
    switch (cop.read_modes[r]) {
      case ReadMode::kExternal:
        LOG(Fatal) << "network op " << cop.name << " reads external data";
        break;
      case ReadMode::kOnePartition:
        add_partition(slots, d, mt.index, 1.0);
        break;
      case ReadMode::kGatherSlices: {
        const int partitions = plan.dataset_partitions(d);
        const double weight =
            cop.slice_weights[static_cast<size_t>(mt.index)] / cop.parallelism;
        for (int p = 0; p < partitions; ++p) {
          add_partition(slots, d, p, weight);
        }
        break;
      }
    }
  }
  return per_source.Drain();
}

TaskUsage UsageEstimator::EstimateTask(const Job& job, TaskId task_id,
                                       const MetadataStore& meta, double ready_input_total) {
  const ExecutionPlan& plan = job.plan;
  const TaskSpec& task = plan.task(task_id);
  TaskUsage usage;
  std::vector<OutputRecord> local;
  for (MonotaskId m : task.monotasks) {
    const MonotaskSpec& mt = plan.monotask(m);
    const double in = MonotaskInputBytes(job, m, meta, &local);
    usage.bytes[static_cast<size_t>(mt.type)] += in;
    if (mt.intask_deps.empty()) {
      usage.input_bytes += in;  // Root monotasks bring data into the task.
    }
    for (OutputRecord& rec : ComputeOutputs(job, m, in)) {
      local.push_back(rec);
    }
  }
  usage.memory = EstimateMemory(job, task_id, usage.input_bytes, ready_input_total);
  return usage;
}

double UsageEstimator::EstimateMemory(const Job& job, TaskId task, double input_bytes,
                                      double ready_input_total) {
  const StageSpec& stage = job.plan.stage(job.plan.task(task).stage);
  const double m2i = stage.m2i > 0.0 ? stage.m2i : job.spec.default_m2i;
  double r = 1.0;
  if (ready_input_total > 0.0) {
    r = std::min(1.0, input_bytes / ready_input_total);
  }
  const double memory = std::min(r * job.spec.declared_memory_bytes, m2i * input_bytes);
  // Every task needs some memory to run at all.
  return std::max(memory, 16.0 * 1024 * 1024);
}

}  // namespace ursa
