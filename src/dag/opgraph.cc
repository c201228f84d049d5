#include "src/dag/opgraph.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa {

OpHandle& OpHandle::Read(DataId data) {
  graph_->op(id_).reads.push_back(data);
  return *this;
}

OpHandle& OpHandle::Create(DataId data) {
  OpDef& op = graph_->op(id_);
  op.creates.push_back(data);
  DatasetDef& ds = graph_->dataset(data);
  CHECK_EQ(ds.creator, kInvalidId) << "dataset " << ds.name << " already has a creator";
  CHECK(ds.external_sizes.empty()) << "external dataset cannot have a creator";
  ds.creator = id_;
  return *this;
}

OpHandle& OpHandle::Update(DataId data) {
  graph_->op(id_).updates.push_back(data);
  return *this;
}

OpHandle& OpHandle::SetCost(const OpCostModel& cost) {
  graph_->op(id_).cost = cost;
  return *this;
}

OpHandle& OpHandle::SetParallelism(int parallelism) {
  CHECK_GT(parallelism, 0);
  graph_->op(id_).parallelism = parallelism;
  return *this;
}

OpHandle& OpHandle::SetUdf(int udf_index) {
  graph_->op(id_).udf = udf_index;
  return *this;
}

OpHandle& OpHandle::SetM2i(double m2i) {
  graph_->op(id_).m2i = m2i;
  return *this;
}

OpHandle& OpHandle::To(const OpHandle& downstream, DepKind kind) {
  CHECK(downstream.valid());
  CHECK(graph_ == downstream.graph_) << "dependency across different OpGraphs";
  graph_->AddDep(id_, downstream.id_, kind);
  return *this;
}

DataId OpGraph::CreateData(int partitions, const std::string& name) {
  CHECK_GT(partitions, 0);
  DatasetDef ds;
  ds.id = static_cast<DataId>(datasets_.size());
  ds.partitions = partitions;
  ds.name = name.empty() ? ("data" + std::to_string(ds.id)) : name;
  datasets_.push_back(std::move(ds));
  return datasets_.back().id;
}

DataId OpGraph::CreateExternalData(std::vector<double> partition_bytes, const std::string& name) {
  CHECK(!partition_bytes.empty());
  DatasetDef ds;
  ds.id = static_cast<DataId>(datasets_.size());
  ds.partitions = static_cast<int>(partition_bytes.size());
  ds.name = name.empty() ? ("input" + std::to_string(ds.id)) : name;
  ds.external_sizes = std::move(partition_bytes);
  datasets_.push_back(std::move(ds));
  return datasets_.back().id;
}

OpHandle OpGraph::CreateOp(ResourceType type, const std::string& name) {
  OpDef op;
  op.id = static_cast<OpId>(ops_.size());
  op.type = type;
  op.name = name.empty() ? (std::string(ResourceTypeName(type)) + std::to_string(op.id)) : name;
  ops_.push_back(std::move(op));
  return OpHandle(this, ops_.back().id);
}

void OpGraph::AddDep(OpId from, OpId to, DepKind kind) {
  CHECK_GE(from, 0);
  CHECK_LT(from, static_cast<OpId>(ops_.size()));
  CHECK_GE(to, 0);
  CHECK_LT(to, static_cast<OpId>(ops_.size()));
  CHECK_NE(from, to);
  deps_.push_back(DepDef{from, to, kind});
}

DatasetDef& OpGraph::dataset(DataId id) {
  CHECK_GE(id, 0);
  CHECK_LT(id, static_cast<DataId>(datasets_.size()));
  return datasets_[static_cast<size_t>(id)];
}

const DatasetDef& OpGraph::dataset(DataId id) const {
  return const_cast<OpGraph*>(this)->dataset(id);
}

OpDef& OpGraph::op(OpId id) {
  CHECK_GE(id, 0);
  CHECK_LT(id, static_cast<OpId>(ops_.size()));
  return ops_[static_cast<size_t>(id)];
}

const OpDef& OpGraph::op(OpId id) const { return const_cast<OpGraph*>(this)->op(id); }

int OpGraph::OpParallelism(OpId op_id) const {
  const OpDef& o = op(op_id);
  if (o.parallelism > 0) {
    return o.parallelism;
  }
  if (!o.creates.empty()) {
    return dataset(o.creates.front()).partitions;
  }
  if (!o.reads.empty()) {
    return dataset(o.reads.front()).partitions;
  }
  if (!o.updates.empty()) {
    return dataset(o.updates.front()).partitions;
  }
  LOG(Fatal) << "op " << o.name << " has no parallelism source";
  return 0;
}

double OpGraph::TotalExternalInputBytes() const {
  double total = 0.0;
  for (const DatasetDef& ds : datasets_) {
    for (double b : ds.external_sizes) {
      total += b;
    }
  }
  return total;
}

void OpGraph::Validate() const {
  // Every dataset read by some op is either external or created by an op.
  for (const OpDef& o : ops_) {
    for (DataId d : o.reads) {
      const DatasetDef& ds = dataset(d);
      CHECK(!ds.external_sizes.empty() || ds.creator != kInvalidId)
          << "op " << o.name << " reads dataset " << ds.name
          << " which is neither external nor created by any op";
    }
    if (o.type != ResourceType::kCpu) {
      CHECK_EQ(o.cost.cpu_complexity, 1.0)
          << "non-CPU op " << o.name << " must not set cpu_complexity";
    }
  }
  // Sync dependencies must target network ops (a barrier materializes as a
  // shuffle; see DESIGN.md section 5). Async endpoints must have matching
  // parallelism so the one-to-one mapping is well-defined.
  for (const DepDef& dep : deps_) {
    const OpDef& to = op(dep.to);
    if (dep.kind == DepKind::kSync) {
      CHECK(to.type == ResourceType::kNetwork)
          << "sync dependency into non-network op " << to.name;
    } else {
      CHECK_EQ(OpParallelism(dep.from), OpParallelism(dep.to))
          << "async dependency " << op(dep.from).name << " -> " << to.name
          << " with mismatched parallelism";
    }
  }
  // Acyclicity via Kahn's algorithm.
  std::vector<int> indegree(ops_.size(), 0);
  for (const DepDef& dep : deps_) {
    ++indegree[static_cast<size_t>(dep.to)];
  }
  std::vector<OpId> frontier;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (indegree[i] == 0) {
      frontier.push_back(static_cast<OpId>(i));
    }
  }
  size_t visited = 0;
  while (!frontier.empty()) {
    const OpId u = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const DepDef& dep : deps_) {
      if (dep.from == u && --indegree[static_cast<size_t>(dep.to)] == 0) {
        frontier.push_back(dep.to);
      }
    }
  }
  CHECK_EQ(visited, ops_.size()) << "OpGraph contains a dependency cycle";
}

int OpGraph::Depth() const {
  std::vector<int> depth(ops_.size(), 1);
  // Ops are created before the deps pointing at them, but dep order is
  // arbitrary; iterate to a fixed point (graphs are small).
  bool changed = true;
  int guard = 0;
  while (changed) {
    changed = false;
    CHECK_LT(++guard, 10000) << "Depth() requires an acyclic graph";
    for (const DepDef& dep : deps_) {
      const int want = depth[static_cast<size_t>(dep.from)] + 1;
      if (depth[static_cast<size_t>(dep.to)] < want) {
        depth[static_cast<size_t>(dep.to)] = want;
        changed = true;
      }
    }
  }
  int best = ops_.empty() ? 0 : 1;
  for (int d : depth) {
    best = std::max(best, d);
  }
  return best;
}

}  // namespace ursa
