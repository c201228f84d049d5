// Compilation of an OpGraph into the monotask execution plan (section 4.1.3).
//
// Steps, following the paper:
//  1. Connected subgraphs of CPU Ops linked by async dependencies are
//     collapsed into single CPU Ops ("CollapsedOp") for scheduling
//     scalability.
//  2. Every (collapsed) Op becomes `parallelism` monotasks, one per
//     partition. A sync dependency induces a many-to-many (bipartite)
//     dependency between the monotasks of the two Ops; an async dependency
//     induces one-to-one dependencies. Many-to-many dependencies are kept
//     implicit (a barrier on the upstream Op) rather than materialized.
//  3. Removing the in-edges of network monotasks decomposes the monotask DAG
//     into connected components; each component is a *task* (its monotasks
//     are co-located on one worker because network transfer is pull-based).
//     Tasks generated from the same Ops form a *stage*.
//
// Because sync dependencies only target network Ops (enforced by
// OpGraph::Validate), all removed edges are exactly the cross-stage edges,
// so a stage is a connected group of collapsed Ops and task i of a stage is
// the i-th monotask of every Op in the group.
#ifndef SRC_DAG_PLAN_H_
#define SRC_DAG_PLAN_H_

#include <array>
#include <string>
#include <vector>

#include "src/dag/opgraph.h"
#include "src/dag/types.h"

namespace ursa {

// How a monotask consumes one of its input datasets.
enum class ReadMode : int {
  // Monotask `i` reads partition `i` (async dependency / local read).
  kOnePartition = 0,
  // Monotask `i` pulls slice `i` of every partition (sync shuffle gather).
  kGatherSlices = 1,
  // Monotask `i` reads partition `i` of an external dataset (job input).
  kExternal = 2,
};

struct CollapsedOp {
  int index = -1;                 // Position in ExecutionPlan::cops().
  ResourceType type = ResourceType::kCpu;
  std::string name;
  std::vector<OpId> members;      // Original ops, in chain order.
  std::vector<DataId> reads;
  std::vector<ReadMode> read_modes;  // Parallel to `reads`.
  std::vector<DataId> creates;
  OpCostModel cost;               // Composed along the collapsed chain.
  int parallelism = 0;
  double m2i = 0.0;               // Memory-to-input ratio; 0 = job default.
  StageId stage = kInvalidId;
  // Per-output-partition skew weights, mean 1.0, size == parallelism.
  std::vector<double> slice_weights;
  // Op-level dependencies (indices into cops):
  std::vector<int> async_parents;   // One-to-one, same partition index.
  std::vector<int> sync_parents;    // Barrier on the whole upstream op.
  int udf = -1;
};

struct MonotaskSpec {
  MonotaskId id = kInvalidId;
  int cop = -1;       // Collapsed op index.
  int index = -1;     // Partition index within the op.
  ResourceType type = ResourceType::kCpu;
  TaskId task = kInvalidId;
  // Monotask-level dependencies *within the same task* (in-task async
  // edges). Cross-task dependencies are tracked at task granularity.
  std::vector<MonotaskId> intask_deps;
  std::vector<MonotaskId> intask_dependents;
};

struct TaskSpec {
  TaskId id = kInvalidId;
  StageId stage = kInvalidId;
  int index = -1;  // Partition index.
  std::vector<MonotaskId> monotasks;  // Topologically ordered.
  // Task-level dependencies:
  std::vector<TaskId> async_parents;       // Same-index tasks of other stages.
  std::vector<StageId> sync_parent_stages; // Whole-stage barriers.
  std::vector<TaskId> async_children;      // Reverse of async_parents.
};

struct StageSpec {
  StageId id = kInvalidId;
  std::string name;
  std::vector<int> cops;       // Collapsed ops in this stage (topo order).
  std::vector<TaskId> tasks;
  int num_tasks = 0;
  double m2i = 0.0;            // Effective memory-to-input ratio.
  // Stages whose tasks sync-depend on this stage (for barrier release).
  std::vector<StageId> sync_child_stages;
};

class ExecutionPlan {
 public:
  // Compiles `graph` (validated inside). `seed` drives the deterministic
  // skew weights. The graph must outlive nothing - the plan copies all it
  // needs.
  static ExecutionPlan Build(const OpGraph& graph, uint64_t seed);

  const std::vector<CollapsedOp>& cops() const { return cops_; }
  const std::vector<MonotaskSpec>& monotasks() const { return monotasks_; }
  const std::vector<TaskSpec>& tasks() const { return tasks_; }
  const std::vector<StageSpec>& stages() const { return stages_; }

  const CollapsedOp& cop(int i) const { return cops_[static_cast<size_t>(i)]; }
  const MonotaskSpec& monotask(MonotaskId id) const {
    return monotasks_[static_cast<size_t>(id)];
  }
  const TaskSpec& task(TaskId id) const { return tasks_[static_cast<size_t>(id)]; }
  const StageSpec& stage(StageId id) const { return stages_[static_cast<size_t>(id)]; }

  // Dataset bookkeeping copied from the graph.
  int dataset_partitions(DataId d) const { return dataset_partitions_[static_cast<size_t>(d)]; }
  const std::vector<double>& external_sizes(DataId d) const {
    return external_sizes_[static_cast<size_t>(d)];
  }
  size_t num_datasets() const { return dataset_partitions_.size(); }

  // Collapsed-op indices in a global topological order (edges respected).
  const std::vector<int>& cop_topo_order() const { return cop_topo_order_; }

  // Expected total bytes flowing through each resource type for the whole
  // job, assuming uniform skew (used to seed SRJF's remaining-work vector R
  // from "historical information", and by workload calibration).
  std::array<double, kNumMonotaskResources> ExpectedWorkByResource() const;

 private:
  std::vector<CollapsedOp> cops_;
  std::vector<MonotaskSpec> monotasks_;
  std::vector<TaskSpec> tasks_;
  std::vector<StageSpec> stages_;
  std::vector<int> dataset_partitions_;
  std::vector<std::vector<double>> external_sizes_;
  std::vector<int> cop_topo_order_;
};

}  // namespace ursa

#endif  // SRC_DAG_PLAN_H_
