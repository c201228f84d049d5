// LocalRuntime: a real (non-simulated) execution engine for OpGraphs.
//
// This is the execution-layer counterpart of the paper's job processes
// (section 4.1.4) for a single machine: monotasks carry real C++ UDFs and
// real data, and are executed from per-resource queues - a CPU thread pool
// sized to the core count, a bounded "network" (shuffle/copy) lane and a
// disk lane - so the quickstart examples run genuine computations through
// the same plan compiler (ExecutionPlan) the simulator uses.
//
// Data model: a partition is a std::any. UDFs receive one input partition
// per dataset the op Reads and return one output partition per dataset the
// op Creates. A sync (shuffle) network op delivers, for output partition j,
// the vector of the j-th *buckets* of every upstream partition: upstream CPU
// ops that feed a shuffle must produce std::vector<std::any> partitions
// (one bucket per output partition), which is what the high-level API's
// ReduceByKey serializer does (mirroring the paper's example).
#ifndef SRC_RUNTIME_LOCAL_RUNTIME_H_
#define SRC_RUNTIME_LOCAL_RUNTIME_H_

#include <any>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/dag/plan.h"

namespace ursa {

// One input partition per Read dataset (in op Read order).
using UdfInputs = std::vector<const std::any*>;
// One output partition per Created dataset (in op Create order).
using Udf = std::function<std::vector<std::any>(const UdfInputs&)>;

class LocalRuntime {
 public:
  LocalRuntime() = default;
  ~LocalRuntime();

  LocalRuntime(const LocalRuntime&) = delete;
  LocalRuntime& operator=(const LocalRuntime&) = delete;

  // Registers a UDF; the returned index is what OpHandle::SetUdf takes.
  int RegisterUdf(Udf udf);

  // Provides the partitions of an external dataset.
  void SetInput(DataId data, std::vector<std::any> partitions);

  // Compiles and executes the graph to completion (blocking). CHECK-fails if
  // any CPU op lacks a UDF.
  void Run(const OpGraph& graph);

  // Result access after Run().
  const std::any& Partition(DataId data, int partition) const;
  int Partitions(DataId data) const;

  // Execution statistics.
  int64_t monotasks_executed(ResourceType type) const {
    return executed_[static_cast<size_t>(type)];
  }

 private:
  struct MonoState {
    int remaining_deps = 0;
  };
  struct TaskState {
    int remaining_async = 0;
    int remaining_sync = 0;
    int remaining_monotasks = 0;
  };

  void ExecuteMonotask(MonotaskId id);
  void OnMonotaskDone(MonotaskId id);
  void MarkTaskReady(TaskId id);
  void Enqueue(MonotaskId id);
  void WorkerLoop(ResourceType lane);
  uint64_t Key(DataId data, int partition) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(data)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(partition));
  }

  std::vector<Udf> udfs_;

  // Populated per Run().
  const ExecutionPlan* plan_ = nullptr;
  const OpGraph* graph_ = nullptr;
  std::unique_ptr<ExecutionPlan> plan_owned_;  // Keeps results queryable.
  std::vector<MonoState> monos_;
  std::vector<TaskState> tasks_;
  std::vector<int> stage_remaining_;
  std::unordered_map<uint64_t, std::any> store_;
  int64_t executed_[kNumMonotaskResources] = {0, 0, 0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<MonotaskId> queues_[kNumMonotaskResources];
  int outstanding_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace ursa

#endif  // SRC_RUNTIME_LOCAL_RUNTIME_H_
