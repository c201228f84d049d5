// The paper's dataflow primitives (section 4.1.1).
//
// A job is an OpGraph of Datasets (distributed, partitioned) and Ops, where
// every Op uses a single resource type (CPU, network, or disk). Dependencies
// between Ops are sync (barrier; many-to-many monotask deps) or async
// (per-partition; one-to-one monotask deps). Example (paper's reduceByKey):
//
//   OpGraph dag;
//   DataId msg = dag.CreateData(in_parts);
//   DataId shuffled = dag.CreateData(out_parts);
//   OpHandle ser = dag.CreateOp(ResourceType::kCpu).Read(input).Create(msg);
//   OpHandle shuffle = dag.CreateOp(ResourceType::kNetwork).Read(msg).Create(shuffled);
//   ser.To(shuffle, DepKind::kSync);
//
// Because the cluster experiments run on a simulator, each Op additionally
// carries an OpCostModel describing how much CPU work it does per input byte
// and how large its output is; the LocalRuntime path instead attaches real
// UDFs through `SetUdf` (see src/runtime).
#ifndef SRC_DAG_OPGRAPH_H_
#define SRC_DAG_OPGRAPH_H_

#include <string>
#include <vector>

#include "src/dag/types.h"

namespace ursa {

// Cost/shape model of an Op for simulated execution.
struct OpCostModel {
  // CPU work per input byte, in byte-equivalents (a worker core processes
  // cpu_byte_rate byte-equivalents per second). Ignored for network/disk ops.
  double cpu_complexity = 1.0;
  // Fixed per-monotask CPU work in byte-equivalents (models constant
  // deserialization / setup costs that dominate tiny partitions).
  double fixed_cpu_work = 0.0;
  // Output bytes produced per input byte.
  double output_selectivity = 1.0;
  // Skew of output partition sizes: sizes are multiplied by a factor in
  // [1/skew, skew] (normalized so the total is preserved). 1 = uniform.
  double output_skew = 1.0;
};

struct DatasetDef {
  DataId id = kInvalidId;
  int partitions = 0;
  std::string name;
  // For external (job input) datasets: per-partition sizes in bytes.
  // Empty for datasets produced by Ops.
  std::vector<double> external_sizes;
  OpId creator = kInvalidId;  // Op that Creates this dataset, if any.
};

struct OpDef {
  OpId id = kInvalidId;
  ResourceType type = ResourceType::kCpu;
  std::string name;
  std::vector<DataId> reads;
  std::vector<DataId> creates;
  std::vector<DataId> updates;
  OpCostModel cost;
  int parallelism = 0;  // 0 = derive from created/read dataset partitions.
  // Index into the runtime UDF registry (LocalRuntime); -1 = none.
  int udf = -1;
  // Memory-to-input ratio for tasks whose CPU monotask comes from this op
  // (paper section 4.2.1). <= 0 means "use the job default".
  double m2i = 0.0;
};

struct DepDef {
  OpId from = kInvalidId;
  OpId to = kInvalidId;
  DepKind kind = DepKind::kAsync;
};

class OpGraph;

// Chainable builder referencing an Op inside an OpGraph (mirrors the paper's
// Op interface: Read / Create / Update / SetUDF / To).
class OpHandle {
 public:
  OpHandle() = default;
  OpHandle(OpGraph* graph, OpId id) : graph_(graph), id_(id) {}

  OpHandle& Read(DataId data);
  OpHandle& Create(DataId data);
  OpHandle& Update(DataId data);
  OpHandle& SetCost(const OpCostModel& cost);
  OpHandle& SetParallelism(int parallelism);
  OpHandle& SetUdf(int udf_index);
  OpHandle& SetM2i(double m2i);
  // Adds a dependency edge this -> downstream.
  OpHandle& To(const OpHandle& downstream, DepKind kind);

  OpId id() const { return id_; }
  bool valid() const { return graph_ != nullptr && id_ != kInvalidId; }

 private:
  OpGraph* graph_ = nullptr;
  OpId id_ = kInvalidId;
};

class OpGraph {
 public:
  // Creates a dataset with `partitions` partitions.
  DataId CreateData(int partitions, const std::string& name = "");

  // Creates a dataset representing external job input with known sizes
  // (e.g. files in the distributed filesystem; paper section 4.2.1 obtains
  // these from HDFS metadata).
  DataId CreateExternalData(std::vector<double> partition_bytes, const std::string& name = "");

  // Creates an Op that uses a single resource type.
  OpHandle CreateOp(ResourceType type, const std::string& name = "");

  void AddDep(OpId from, OpId to, DepKind kind);

  // Structure checks; CHECK-fails with a diagnostic on invalid graphs:
  // acyclicity, every non-external dataset has exactly one creator, sync
  // dependencies target network ops only, async endpoints have matching
  // parallelism.
  void Validate() const;

  // Effective parallelism of an op (explicit, or derived from its first
  // created dataset, falling back to its first read dataset).
  int OpParallelism(OpId op) const;

  const std::vector<DatasetDef>& datasets() const { return datasets_; }
  std::vector<DatasetDef>& mutable_datasets() { return datasets_; }
  const std::vector<OpDef>& ops() const { return ops_; }
  const std::vector<DepDef>& deps() const { return deps_; }
  DatasetDef& dataset(DataId id);
  const DatasetDef& dataset(DataId id) const;
  OpDef& op(OpId id);
  const OpDef& op(OpId id) const;

  // Total bytes of all external datasets (the job input size).
  double TotalExternalInputBytes() const;

  // Longest path length in the op DAG, in ops (the paper reports DAG depth).
  int Depth() const;

 private:
  friend class OpHandle;

  std::vector<DatasetDef> datasets_;
  std::vector<OpDef> ops_;
  std::vector<DepDef> deps_;
};

}  // namespace ursa

#endif  // SRC_DAG_OPGRAPH_H_
