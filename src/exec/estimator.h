// Resource usage estimation by the job manager (section 4.2.1).
//
// Network and disk usage of a monotask are estimated as its input size; CPU
// usage is *also* estimated as the input size (the scheduler's processing
// rate monitoring absorbs per-op complexity differences - footnote 3 of the
// paper). Memory is estimated per task as min(r * M(j), m2i(t) * I(t)) where
// r is the task's share of the job's currently-ready input and m2i is the
// configured memory-to-input ratio.
//
// Because our execution model is deterministic given the recorded metadata,
// the estimator walks the task's monotasks in topological order, propagating
// intermediate output sizes, which yields the exact per-resource input bytes
// the paper computes from dataset metadata.
#ifndef SRC_EXEC_ESTIMATOR_H_
#define SRC_EXEC_ESTIMATOR_H_

#include <vector>

#include "src/dag/job.h"
#include "src/exec/metadata_store.h"
#include "src/exec/monotask_queue.h"

namespace ursa {

struct TaskUsage {
  // Estimated per-resource usage in bytes (input-size proxy), indexed by
  // ResourceType.
  double bytes[kNumMonotaskResources] = {0.0, 0.0, 0.0};
  // Estimated memory in bytes.
  double memory = 0.0;
  // Task input I(t): bytes entering the task from outside.
  double input_bytes = 0.0;
};

struct OutputRecord {
  DataId data = kInvalidId;
  int partition = -1;
  double bytes = 0.0;
};

class UsageEstimator {
 public:
  // Input bytes of a monotask given recorded metadata. For monotasks whose
  // inputs are produced inside the same task, `local` carries the projected
  // sizes (keyed the same way as OutputRecord); pass nullptr when all inputs
  // are already in the metadata store.
  static double MonotaskInputBytes(const Job& job, MonotaskId mt, const MetadataStore& meta,
                                   const std::vector<OutputRecord>* local);

  // Outputs a monotask produces given its input size (selectivity and skew
  // weights applied).
  static std::vector<OutputRecord> ComputeOutputs(const Job& job, MonotaskId mt,
                                                  double input_bytes);

  // Network pulls for a network monotask (aggregated per source worker).
  static std::vector<RunnableMonotask::Pull> ResolvePulls(const Job& job, MonotaskId mt,
                                                          const MetadataStore& meta);

  // As above, but partitions found in `local` (outputs buffered by a
  // speculative copy running on `local_worker`) are pulled from there instead
  // of from the location the metadata store records for the primary.
  static std::vector<RunnableMonotask::Pull> ResolvePulls(
      const Job& job, MonotaskId mt, const MetadataStore& meta,
      const std::vector<OutputRecord>* local, WorkerId local_worker);

  // Full task usage estimate. `ready_input_total` is the total input bytes
  // of the job's currently-ready tasks (for the r * M(j) memory cap).
  static TaskUsage EstimateTask(const Job& job, TaskId task, const MetadataStore& meta,
                                double ready_input_total);

  // Memory of a task reading `input_bytes` (section 4.2.1):
  // min(r * M(j), m2i * I(t)) with r the task's share of `ready_input_total`
  // (1 when that is 0), and at least 16 MiB.
  static double EstimateMemory(const Job& job, TaskId task, double input_bytes,
                               double ready_input_total);
};

}  // namespace ursa

#endif  // SRC_EXEC_ESTIMATOR_H_
