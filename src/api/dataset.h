// High-level typed dataset API (section 4.1.2): Spark-like transformations
// built on top of the OpGraph primitives, executable for real through
// LocalRuntime. Mirrors the paper's example - ReduceByKey compiles to a
// serialize CPU op, a sync network shuffle, and a deserialize/combine CPU
// op, exactly like the C++ snippet in section 4.1.2.
//
//   UrsaContext ctx;
//   auto words = ctx.Parallelize<std::string>(partitions);
//   auto counts = words
//       .Map([](const std::string& w) { return std::make_pair(w, 1); })
//       .ReduceByKey([](int a, int b) { return a + b; }, 4);
//   for (auto& [word, n] : counts.Collect()) { ... }
//
// The same OpGraph a context builds can be handed to the cluster simulator
// (the ops carry cost models settable via WithCost), so one program works as
// both a real local computation and a simulated distributed job.
#ifndef SRC_API_DATASET_H_
#define SRC_API_DATASET_H_

#include <any>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/dag/opgraph.h"
#include "src/runtime/local_runtime.h"

namespace ursa {

template <typename T>
class TypedDataset;

class UrsaContext {
 public:
  // Creates a dataset from in-memory partitions.
  template <typename T>
  TypedDataset<T> Parallelize(std::vector<std::vector<T>> partitions,
                              const std::string& name = "input");

  // Executes the graph (idempotent; Collect() calls this automatically).
  void Run() {
    if (!ran_) {
      graph_.Validate();
      runtime_.Run(graph_);
      ran_ = true;
    }
  }

  OpGraph& graph() { return graph_; }
  LocalRuntime& runtime() { return runtime_; }

 private:
  template <typename T>
  friend class TypedDataset;

  OpGraph graph_;
  LocalRuntime runtime_;
  bool ran_ = false;
};

template <typename T>
class TypedDataset {
 public:
  TypedDataset(UrsaContext* ctx, DataId data, OpHandle creator, int partitions)
      : ctx_(ctx), data_(data), creator_(creator), partitions_(partitions) {}

  int partitions() const { return partitions_; }
  DataId data() const { return data_; }

  // --- Element-wise transformations (async, chainable; the plan compiler
  // collapses chains of these into single CPU monotasks). ---

  template <typename F, typename U = std::invoke_result_t<F, const T&>>
  TypedDataset<U> Map(F f, const std::string& name = "map") const {
    return Transform<U>(name, 1.0, [f = std::move(f)](const std::vector<T>& in) {
      std::vector<U> out;
      out.reserve(in.size());
      for (const T& x : in) {
        out.push_back(f(x));
      }
      return out;
    });
  }

  template <typename F>
  TypedDataset<T> Filter(F pred, const std::string& name = "filter") const {
    return Transform<T>(name, 0.5, [pred = std::move(pred)](const std::vector<T>& in) {
      std::vector<T> out;
      for (const T& x : in) {
        if (pred(x)) {
          out.push_back(x);
        }
      }
      return out;
    });
  }

  template <typename F,
            typename U = typename std::invoke_result_t<F, const T&>::value_type>
  TypedDataset<U> FlatMap(F f, const std::string& name = "flatMap") const {
    return Transform<U>(name, 1.5, [f = std::move(f)](const std::vector<T>& in) {
      std::vector<U> out;
      for (const T& x : in) {
        for (U& y : f(x)) {
          out.push_back(std::move(y));
        }
      }
      return out;
    });
  }

  // --- Shuffle: ReduceByKey for T = std::pair<K, V> (paper section 4.1.2).
  // `combine` must be associative and commutative. ---
  template <typename Combine>
  TypedDataset<T> ReduceByKey(Combine combine, int out_partitions,
                              const std::string& name = "reduceByKey") const {
    using K = typename T::first_type;
    using V = typename T::second_type;
    OpGraph& graph = ctx_->graph_;
    const DataId msg = graph.CreateData(partitions_, name + "-msg");
    const DataId shuffled = graph.CreateData(out_partitions, name + "-shuffled");
    const DataId result = graph.CreateData(out_partitions, name + "-out");

    // Serialize: combine locally, bucket by hash(key) % out_partitions.
    const int ser_udf = ctx_->runtime_.RegisterUdf(
        [out_partitions, combine](const UdfInputs& inputs) -> std::vector<std::any> {
          const auto& in = *std::any_cast<std::vector<T>>(inputs[0]);
          std::unordered_map<K, V> local;
          for (const auto& [k, v] : in) {
            auto [it, inserted] = local.emplace(k, v);
            if (!inserted) {
              it->second = combine(it->second, v);
            }
          }
          std::vector<std::vector<T>> buckets(static_cast<size_t>(out_partitions));
          for (auto& [k, v] : local) {
            const size_t b = std::hash<K>{}(k) % static_cast<size_t>(out_partitions);
            buckets[b].emplace_back(k, std::move(v));
          }
          std::vector<std::any> bucket_anys;
          bucket_anys.reserve(buckets.size());
          for (auto& b : buckets) {
            bucket_anys.emplace_back(std::move(b));
          }
          return {std::any(std::move(bucket_anys))};
        });
    OpCostModel ser_cost;
    ser_cost.cpu_complexity = 1.5;
    ser_cost.output_selectivity = 0.8;
    OpHandle ser = graph.CreateOp(ResourceType::kCpu, name + "-ser")
                       .Read(data_)
                       .Create(msg)
                       .SetCost(ser_cost)
                       .SetUdf(ser_udf);
    if (creator_.valid()) {
      const_cast<OpHandle&>(creator_).To(ser, DepKind::kAsync);
    }

    OpHandle shuffle =
        graph.CreateOp(ResourceType::kNetwork, name + "-shuffle").Read(msg).Create(shuffled);
    ser.To(shuffle, DepKind::kSync);

    // Deserialize: merge the slices and apply the combiner across sources.
    const int deser_udf = ctx_->runtime_.RegisterUdf(
        [combine](const UdfInputs& inputs) -> std::vector<std::any> {
          const auto& slices = *std::any_cast<std::vector<std::any>>(inputs[0]);
          std::unordered_map<K, V> merged;
          for (const std::any& slice : slices) {
            for (const auto& [k, v] : *std::any_cast<std::vector<T>>(&slice)) {
              auto [it, inserted] = merged.emplace(k, v);
              if (!inserted) {
                it->second = combine(it->second, v);
              }
            }
          }
          std::vector<T> out;
          out.reserve(merged.size());
          for (auto& [k, v] : merged) {
            out.emplace_back(k, std::move(v));
          }
          return {std::any(std::move(out))};
        });
    OpCostModel deser_cost;
    deser_cost.cpu_complexity = 1.0;
    OpHandle deser = graph.CreateOp(ResourceType::kCpu, name + "-deser")
                         .Read(shuffled)
                         .Create(result)
                         .SetCost(deser_cost)
                         .SetUdf(deser_udf);
    shuffle.To(deser, DepKind::kAsync);
    return TypedDataset<T>(ctx_, result, deser, out_partitions);
  }

  // --- GroupByKey for T = std::pair<K, V>: groups all values per key. ---
  // (Deduced lazily via TT so non-pair datasets still instantiate.)
  template <typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type>
  auto GroupByKey(int out_partitions, const std::string& name = "groupByKey") const {
    // Wrap each value in a singleton list, then concatenate lists per key
    // through the standard ser/shuffle/deser pattern.
    return Map([](const T& kv) { return std::make_pair(kv.first, std::vector<V>{kv.second}); },
               name + "-wrap")
        .ReduceByKey(
            [](std::vector<V> a, std::vector<V> b) {
              a.insert(a.end(), std::make_move_iterator(b.begin()),
                       std::make_move_iterator(b.end()));
              return a;
            },
            out_partitions, name);
  }

  // --- Inner equi-join with `other` on the pair key (hash partitioned). ---
  template <typename U, typename TT = T, typename K = typename TT::first_type,
            typename V = typename TT::second_type,
            typename W = typename U::second_type>
  auto Join(const TypedDataset<U>& other, int out_partitions,
            const std::string& name = "join") const {
    auto left = GroupByKey(out_partitions, name + "-l");
    auto right = other.GroupByKey(out_partitions, name + "-r");
    // Zip the co-partitioned groups with a CPU op reading both datasets.
    using Out = std::pair<K, std::pair<V, W>>;
    OpGraph& graph = ctx_->graph_;
    const DataId out = graph.CreateData(out_partitions, name + "-out");
    const int udf = ctx_->runtime_.RegisterUdf([](const UdfInputs& inputs) {
      const auto& lhs =
          *std::any_cast<std::vector<std::pair<K, std::vector<V>>>>(inputs[0]);
      const auto& rhs =
          *std::any_cast<std::vector<std::pair<K, std::vector<W>>>>(inputs[1]);
      std::unordered_map<K, const std::vector<W>*> index;
      index.reserve(rhs.size());
      for (const auto& [k, values] : rhs) {
        index.emplace(k, &values);
      }
      std::vector<Out> out_rows;
      for (const auto& [k, left_values] : lhs) {
        auto it = index.find(k);
        if (it == index.end()) {
          continue;
        }
        for (const V& v : left_values) {
          for (const W& w : *it->second) {
            out_rows.emplace_back(k, std::make_pair(v, w));
          }
        }
      }
      return std::vector<std::any>{std::any(std::move(out_rows))};
    });
    OpCostModel cost;
    cost.cpu_complexity = 2.0;
    OpHandle op = graph.CreateOp(ResourceType::kCpu, name)
                      .Read(left.data())
                      .Read(right.data())
                      .Create(out)
                      .SetCost(cost)
                      .SetUdf(udf);
    left.creator_.To(op, DepKind::kAsync);
    right.creator_.To(op, DepKind::kAsync);
    return TypedDataset<Out>(ctx_, out, op, out_partitions);
  }

  // Runs the graph (if needed) and concatenates all partitions.
  std::vector<T> Collect() const {
    ctx_->Run();
    std::vector<T> out;
    for (int p = 0; p < partitions_; ++p) {
      const auto& part = *std::any_cast<std::vector<T>>(&ctx_->runtime_.Partition(data_, p));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  // Overrides the cost model of the op producing this dataset (used when the
  // same program is fed to the cluster simulator).
  TypedDataset<T>& WithCost(const OpCostModel& cost) {
    CHECK(creator_.valid());
    creator_.SetCost(cost);
    return *this;
  }

 private:
  template <typename U>
  friend class TypedDataset;

  template <typename U, typename Fn>
  TypedDataset<U> Transform(const std::string& name, double selectivity, Fn fn) const {
    OpGraph& graph = ctx_->graph_;
    const DataId out = graph.CreateData(partitions_, name + "-out");
    const int udf =
        ctx_->runtime_.RegisterUdf([fn = std::move(fn)](const UdfInputs& inputs) {
          const auto& in = *std::any_cast<std::vector<T>>(inputs[0]);
          return std::vector<std::any>{std::any(fn(in))};
        });
    OpCostModel cost;
    cost.cpu_complexity = 1.0;
    cost.output_selectivity = selectivity;
    OpHandle op = graph.CreateOp(ResourceType::kCpu, name)
                      .Read(data_)
                      .Create(out)
                      .SetCost(cost)
                      .SetUdf(udf);
    if (creator_.valid()) {
      const_cast<OpHandle&>(creator_).To(op, DepKind::kAsync);
    }
    return TypedDataset<U>(ctx_, out, op, partitions_);
  }

  UrsaContext* ctx_;
  DataId data_;
  OpHandle creator_;
  int partitions_;
};

template <typename T>
TypedDataset<T> UrsaContext::Parallelize(std::vector<std::vector<T>> partitions,
                                         const std::string& name) {
  CHECK(!partitions.empty());
  std::vector<double> sizes;
  sizes.reserve(partitions.size());
  for (const auto& p : partitions) {
    sizes.push_back(static_cast<double>(p.size() * sizeof(T)) + 1.0);
  }
  const DataId data = graph_.CreateExternalData(std::move(sizes), name);
  std::vector<std::any> anys;
  anys.reserve(partitions.size());
  for (auto& p : partitions) {
    anys.emplace_back(std::move(p));
  }
  runtime_.SetInput(data, std::move(anys));
  return TypedDataset<T>(this, data, OpHandle(), static_cast<int>(partitions.size()));
}

}  // namespace ursa

#endif  // SRC_API_DATASET_H_
