// Metadata store maintained by each job manager (section 4.1.3): records the
// size and location of every materialized dataset partition so that resource
// usage of a task is known exactly at the time the task becomes ready.
//
// Layout: one dense table per job, indexed [DataId][partition], held in a
// JobId-ordered map. A slot whose worker is kInvalidId holds no partition.
// Lookups are one map find plus two vector indexes, dropping a job erases one
// map entry, and the estimator walks a dataset's partitions as one array.
#ifndef SRC_EXEC_METADATA_STORE_H_
#define SRC_EXEC_METADATA_STORE_H_

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "src/dag/plan.h"
#include "src/dag/types.h"

namespace ursa {

struct PartitionInfo {
  double bytes = 0.0;
  WorkerId worker = kInvalidId;  // kInvalidId: not materialized.
};

class MetadataStore {
 public:
  // Sizes `job`'s table from its plan so that Put never reallocates. Keeps
  // any partitions already recorded. Optional: Put grows the table of a job
  // that was never added.
  void AddJob(JobId job, const ExecutionPlan& plan);

  void Put(JobId job, DataId data, int partition, double bytes, WorkerId worker);
  bool Has(JobId job, DataId data, int partition) const;
  const PartitionInfo& Get(JobId job, DataId data, int partition) const;

  // The partition slots of one dataset, indexed by partition. Slots past the
  // end, and slots whose worker is kInvalidId, hold no partition. Empty when
  // the store has nothing for the dataset. Invalidated by the next Put to
  // the same job.
  std::span<const PartitionInfo> Dataset(JobId job, DataId data) const;

  // Frees all metadata of a finished job. No-op for an unknown job.
  void DropJob(JobId job);

  // Drops every partition resident on `worker` (its data died with it).
  // Returns the number of partitions dropped.
  int DropWorker(WorkerId worker);

  // Number of recorded partitions.
  size_t size() const { return size_; }

 private:
  struct JobTable {
    std::vector<std::vector<PartitionInfo>> datasets;  // [DataId][partition]
    size_t entries = 0;
  };

  // The recorded partition, or nullptr.
  const PartitionInfo* Find(JobId job, DataId data, int partition) const;

  std::map<JobId, JobTable> jobs_;
  size_t size_ = 0;
};

}  // namespace ursa

#endif  // SRC_EXEC_METADATA_STORE_H_
