// Pregel-like vertex-centric API (section 4.1.2 mentions Ursa provides one).
//
// A vertex program runs in supersteps: in each superstep every vertex
// receives the messages sent to it in the previous superstep, updates its
// value, and sends messages to other vertices. Each superstep compiles to
// one CPU op (compute + message bucketing) and one sync network op (message
// shuffle); vertex state rides through the shuffle in the partition's
// self-slice, so the barrier semantics come entirely from the monotask plan.
//
//   auto ranks = RunPregel<double, double>(
//       partitions, /*supersteps=*/10,
//       [](int64_t id, int degree) { return 1.0; },          // init
//       [](PregelVertex<double>& v, const std::vector<double>& inbox, int step,
//          const MessageSender<double>& send) { ... });
#ifndef SRC_API_PREGEL_H_
#define SRC_API_PREGEL_H_

#include <any>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/dag/opgraph.h"
#include "src/runtime/local_runtime.h"

namespace ursa {

template <typename V>
struct PregelVertex {
  int64_t id = 0;
  V value{};
  std::vector<int64_t> neighbors;
};

// Adjacency-only input vertex.
struct GraphVertex {
  int64_t id = 0;
  std::vector<int64_t> neighbors;
};

template <typename M>
using MessageSender = std::function<void(int64_t dst, const M& message)>;

template <typename V, typename M>
using PregelCompute = std::function<void(PregelVertex<V>& vertex, const std::vector<M>& inbox,
                                         int superstep, const MessageSender<M>& send)>;

template <typename V>
using PregelInit = std::function<V(int64_t id, int degree)>;

// Vertices must be pre-partitioned with this function.
inline size_t PregelPartitionOf(int64_t id, size_t partitions) {
  return static_cast<size_t>(static_cast<uint64_t>(id)) % partitions;
}

namespace pregel_internal {

template <typename V, typename M>
struct Slice {
  // Messages from the source partition destined to this partition.
  std::vector<std::pair<int64_t, M>> messages;
  // Vertex states, carried only in the self-slice (src == dst).
  std::vector<PregelVertex<V>> states;
};

}  // namespace pregel_internal

// Runs a vertex program over `partitions`. Returns all (id, value) pairs
// after `supersteps` rounds. Messages sent in the final superstep are
// discarded (there is no next round to receive them).
template <typename V, typename M>
std::vector<std::pair<int64_t, V>> RunPregel(std::vector<std::vector<GraphVertex>> partitions,
                                             int supersteps, PregelInit<V> init,
                                             PregelCompute<V, M> compute) {
  using Slice = pregel_internal::Slice<V, M>;
  CHECK_GE(supersteps, 1);
  const int p = static_cast<int>(partitions.size());
  CHECK_GT(p, 0);

  LocalRuntime runtime;
  OpGraph graph;

  // External adjacency input.
  std::vector<double> sizes;
  std::vector<std::any> input_parts;
  for (auto& part : partitions) {
    double bytes = 1.0;
    for (const GraphVertex& v : part) {
      bytes += 16.0 + 8.0 * static_cast<double>(v.neighbors.size());
    }
    sizes.push_back(bytes);
    input_parts.emplace_back(std::move(part));
  }
  const DataId adjacency = graph.CreateExternalData(std::move(sizes), "adjacency");
  runtime.SetInput(adjacency, std::move(input_parts));

  // Runs `compute` over the partition's vertices and buckets the outgoing
  // messages by destination partition; the self-slice carries the states.
  auto run_step = [p, compute](std::vector<PregelVertex<V>> vertices,
                               const std::vector<std::vector<M>>& inboxes,
                               int step) -> std::vector<std::any> {
    const int self = vertices.empty()
                         ? 0
                         : static_cast<int>(PregelPartitionOf(vertices.front().id,
                                                              static_cast<size_t>(p)));
    std::vector<Slice> buckets(static_cast<size_t>(p));
    static const std::vector<M> kEmptyInbox;
    for (size_t i = 0; i < vertices.size(); ++i) {
      MessageSender<M> send = [&buckets, p](int64_t dst, const M& message) {
        buckets[PregelPartitionOf(dst, static_cast<size_t>(p))].messages.emplace_back(dst,
                                                                                      message);
      };
      compute(vertices[i], i < inboxes.size() ? inboxes[i] : kEmptyInbox, step, send);
    }
    buckets[static_cast<size_t>(self)].states = std::move(vertices);
    std::vector<std::any> bucket_anys;
    bucket_anys.reserve(buckets.size());
    for (Slice& b : buckets) {
      bucket_anys.emplace_back(std::move(b));
    }
    return {std::any(std::move(bucket_anys))};
  };

  // Rebuilds (vertices, inboxes) from the gathered slices.
  auto unpack = [](const std::vector<std::any>& slices) {
    std::vector<PregelVertex<V>> vertices;
    for (const std::any& s : slices) {
      const Slice& slice = *std::any_cast<Slice>(&s);
      if (!slice.states.empty()) {
        CHECK(vertices.empty()) << "multiple state slices in one partition";
        vertices = slice.states;
      }
    }
    std::unordered_map<int64_t, size_t> index;
    index.reserve(vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      index.emplace(vertices[i].id, i);
    }
    std::vector<std::vector<M>> inboxes(vertices.size());
    for (const std::any& s : slices) {
      const Slice& slice = *std::any_cast<Slice>(&s);
      for (const auto& [dst, msg] : slice.messages) {
        auto it = index.find(dst);
        if (it != index.end()) {
          inboxes[it->second].push_back(msg);
        }
      }
    }
    return std::make_pair(std::move(vertices), std::move(inboxes));
  };

  // Extracts the states from a step's output buckets (final superstep).
  auto extract_states = [](std::vector<std::any> outputs) {
    auto& bucket_anys = *std::any_cast<std::vector<std::any>>(&outputs[0]);
    std::vector<PregelVertex<V>> result;
    for (std::any& b : bucket_anys) {
      Slice& slice = *std::any_cast<Slice>(&b);
      if (!slice.states.empty()) {
        result = std::move(slice.states);
      }
    }
    return result;
  };

  OpHandle prev;
  DataId current = adjacency;
  for (int step = 0; step < supersteps; ++step) {
    const bool first = step == 0;
    const bool last = step == supersteps - 1;
    const std::string suffix = std::to_string(step);
    const DataId out = graph.CreateData(p, (last ? "result" : "buckets") + suffix);

    Udf udf = [run_step, unpack, extract_states, init, first, last,
               step](const UdfInputs& inputs) -> std::vector<std::any> {
      std::vector<PregelVertex<V>> vertices;
      std::vector<std::vector<M>> inboxes;
      if (first) {
        const auto& adj = *std::any_cast<std::vector<GraphVertex>>(inputs[0]);
        vertices.reserve(adj.size());
        for (const GraphVertex& gv : adj) {
          PregelVertex<V> v;
          v.id = gv.id;
          v.value = init(gv.id, static_cast<int>(gv.neighbors.size()));
          v.neighbors = gv.neighbors;
          vertices.push_back(std::move(v));
        }
      } else {
        const auto& slices = *std::any_cast<std::vector<std::any>>(inputs[0]);
        std::tie(vertices, inboxes) = unpack(slices);
      }
      std::vector<std::any> buckets = run_step(std::move(vertices), inboxes, step);
      if (last) {
        return {std::any(extract_states(std::move(buckets)))};
      }
      return buckets;
    };

    OpHandle op = graph.CreateOp(ResourceType::kCpu, "superstep" + suffix)
                      .Read(current)
                      .Create(out)
                      .SetUdf(runtime.RegisterUdf(std::move(udf)));
    if (!first) {
      prev.To(op, DepKind::kAsync);
    }
    if (!last) {
      const DataId delivered = graph.CreateData(p, "delivered" + suffix);
      OpHandle shuffle = graph.CreateOp(ResourceType::kNetwork, "msgshuffle" + suffix)
                             .Read(out)
                             .Create(delivered);
      op.To(shuffle, DepKind::kSync);
      prev = shuffle;
      current = delivered;
    } else {
      current = out;
    }
  }

  runtime.Run(graph);
  std::vector<std::pair<int64_t, V>> result;
  for (int part = 0; part < p; ++part) {
    const auto& vertices =
        *std::any_cast<std::vector<PregelVertex<V>>>(&runtime.Partition(current, part));
    for (const PregelVertex<V>& v : vertices) {
      result.emplace_back(v.id, v.value);
    }
  }
  return result;
}

}  // namespace ursa

#endif  // SRC_API_PREGEL_H_
