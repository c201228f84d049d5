#include "src/exec/metadata_store.h"

#include "src/common/logging.h"

namespace ursa {

void MetadataStore::AddJob(JobId job, const ExecutionPlan& plan) {
  JobTable& table = jobs_[job];
  if (table.datasets.size() < plan.num_datasets()) {
    table.datasets.resize(plan.num_datasets());
  }
  for (size_t d = 0; d < plan.num_datasets(); ++d) {
    const size_t partitions =
        static_cast<size_t>(plan.dataset_partitions(static_cast<DataId>(d)));
    if (table.datasets[d].size() < partitions) {
      table.datasets[d].resize(partitions);
    }
  }
}

void MetadataStore::Put(JobId job, DataId data, int partition, double bytes, WorkerId worker) {
  CHECK_GE(data, 0);
  CHECK_GE(partition, 0);
  CHECK_NE(worker, kInvalidId) << "partition metadata needs a location";
  JobTable& table = jobs_[job];
  const size_t d = static_cast<size_t>(data);
  const size_t p = static_cast<size_t>(partition);
  if (table.datasets.size() <= d) {
    table.datasets.resize(d + 1);
  }
  std::vector<PartitionInfo>& slots = table.datasets[d];
  if (slots.size() <= p) {
    slots.resize(p + 1);
  }
  PartitionInfo& info = slots[p];
  if (info.worker == kInvalidId) {
    ++table.entries;
    ++size_;
  }
  info.bytes = bytes;
  info.worker = worker;
}

std::span<const PartitionInfo> MetadataStore::Dataset(JobId job, DataId data) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end() || data < 0 ||
      static_cast<size_t>(data) >= it->second.datasets.size()) {
    return {};
  }
  return it->second.datasets[static_cast<size_t>(data)];
}

const PartitionInfo* MetadataStore::Find(JobId job, DataId data, int partition) const {
  const std::span<const PartitionInfo> slots = Dataset(job, data);
  if (partition < 0 || static_cast<size_t>(partition) >= slots.size() ||
      slots[static_cast<size_t>(partition)].worker == kInvalidId) {
    return nullptr;
  }
  return &slots[static_cast<size_t>(partition)];
}

bool MetadataStore::Has(JobId job, DataId data, int partition) const {
  return Find(job, data, partition) != nullptr;
}

const PartitionInfo& MetadataStore::Get(JobId job, DataId data, int partition) const {
  const PartitionInfo* info = Find(job, data, partition);
  CHECK(info != nullptr) << "missing partition metadata: job " << job << " data " << data
                         << " partition " << partition;
  return *info;
}

int MetadataStore::DropWorker(WorkerId worker) {
  if (worker == kInvalidId) {
    return 0;  // Empty slots carry kInvalidId; no partition lives there.
  }
  int dropped = 0;
  for (auto& [job, table] : jobs_) {
    for (std::vector<PartitionInfo>& slots : table.datasets) {
      for (PartitionInfo& info : slots) {
        if (info.worker == worker) {
          info = PartitionInfo{};
          --table.entries;
          ++dropped;
        }
      }
    }
  }
  size_ -= static_cast<size_t>(dropped);
  return dropped;
}

void MetadataStore::DropJob(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  size_ -= it->second.entries;
  jobs_.erase(it);
}

}  // namespace ursa
