// Tests for the real (non-simulated) execution runtime and the typed
// dataset / Pregel APIs built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "src/api/dataset.h"
#include "src/api/pregel.h"
#include "src/runtime/local_runtime.h"

namespace ursa {
namespace {

TEST(LocalRuntime, RunsSingleCpuOp) {
  LocalRuntime runtime;
  OpGraph graph;
  const DataId input = graph.CreateExternalData({8.0, 8.0}, "in");
  runtime.SetInput(input, {std::any(std::vector<int>{1, 2}), std::any(std::vector<int>{3, 4})});
  const DataId output = graph.CreateData(2, "out");
  const int udf = runtime.RegisterUdf([](const UdfInputs& inputs) {
    const auto& in = *std::any_cast<std::vector<int>>(inputs[0]);
    std::vector<int> out;
    for (int x : in) {
      out.push_back(x * 10);
    }
    return std::vector<std::any>{std::any(out)};
  });
  graph.CreateOp(ResourceType::kCpu, "times10").Read(input).Create(output).SetUdf(udf);
  runtime.Run(graph);
  EXPECT_EQ(*std::any_cast<std::vector<int>>(&runtime.Partition(output, 0)),
            (std::vector<int>{10, 20}));
  EXPECT_EQ(*std::any_cast<std::vector<int>>(&runtime.Partition(output, 1)),
            (std::vector<int>{30, 40}));
  EXPECT_EQ(runtime.monotasks_executed(ResourceType::kCpu), 2);
}

TEST(DatasetApi, MapFilterCollect) {
  UrsaContext ctx;
  auto numbers = ctx.Parallelize<int>({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  auto result = numbers.Map([](const int& x) { return x * x; })
                    .Filter([](const int& x) { return x % 2 == 1; })
                    .Collect();
  std::sort(result.begin(), result.end());
  EXPECT_EQ(result, (std::vector<int>{1, 9, 25, 49, 81}));
}

TEST(DatasetApi, MapChainsCollapseToOneCpuOpPerPartition) {
  UrsaContext ctx;
  auto data = ctx.Parallelize<int>({{1}, {2}});
  auto result =
      data.Map([](const int& x) { return x + 1; }).Map([](const int& x) { return x * 2; });
  (void)result.Collect();
  // Two partitions, one collapsed CPU monotask each (chain fused).
  EXPECT_EQ(ctx.runtime().monotasks_executed(ResourceType::kCpu), 2);
}

TEST(DatasetApi, WordCountViaReduceByKey) {
  UrsaContext ctx;
  std::vector<std::vector<std::string>> lines = {
      {"the quick brown fox", "the lazy dog"},
      {"the fox jumps", "quick quick"},
  };
  auto words = ctx.Parallelize<std::string>(lines).FlatMap([](const std::string& line) {
    std::vector<std::string> out;
    size_t start = 0;
    while (start < line.size()) {
      size_t end = line.find(' ', start);
      if (end == std::string::npos) {
        end = line.size();
      }
      if (end > start) {
        out.push_back(line.substr(start, end - start));
      }
      start = end + 1;
    }
    return out;
  });
  auto counts =
      words.Map([](const std::string& w) { return std::make_pair(w, 1); })
          .ReduceByKey([](int a, int b) { return a + b; }, 3);
  std::map<std::string, int> result;
  for (const auto& [word, n] : counts.Collect()) {
    result[word] = n;
  }
  EXPECT_EQ(result["the"], 3);
  EXPECT_EQ(result["quick"], 3);
  EXPECT_EQ(result["fox"], 2);
  EXPECT_EQ(result["dog"], 1);
  // The shuffle ran as network monotasks.
  EXPECT_EQ(ctx.runtime().monotasks_executed(ResourceType::kNetwork), 3);
}

TEST(DatasetApi, ReduceByKeyMatchesSerialReference) {
  // Property: for random multisets, distributed ReduceByKey == serial fold.
  UrsaContext ctx;
  std::vector<std::vector<std::pair<int, int>>> parts(4);
  std::map<int, int> expected;
  uint64_t state = 12345;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int key = static_cast<int>(state % 37);
    const int value = static_cast<int>((state >> 8) % 100);
    parts[i % 4].emplace_back(key, value);
    expected[key] += value;
  }
  auto result = ctx.Parallelize<std::pair<int, int>>(parts)
                    .ReduceByKey([](int a, int b) { return a + b; }, 5)
                    .Collect();
  std::map<int, int> actual(result.begin(), result.end());
  EXPECT_EQ(actual, expected);
}

TEST(Pregel, PagerankOnSmallGraph) {
  // Star graph: vertex 0 linked from 1..4; ranks must order 0 first.
  const int n = 5;
  std::vector<std::vector<GraphVertex>> parts(2);
  for (int64_t v = 0; v < n; ++v) {
    GraphVertex gv;
    gv.id = v;
    if (v != 0) {
      gv.neighbors = {0, (v % 4) + 1 == v ? 1 : (v % 4) + 1};
    } else {
      gv.neighbors = {1, 2, 3, 4};
    }
    parts[PregelPartitionOf(v, 2)].push_back(std::move(gv));
  }
  auto ranks = RunPregel<double, double>(
      parts, 15, [](int64_t, int) { return 1.0 / n; },
      [](PregelVertex<double>& v, const std::vector<double>& inbox, int step,
         const MessageSender<double>& send) {
        if (step > 0) {
          double sum = 0.0;
          for (double m : inbox) {
            sum += m;
          }
          v.value = 0.15 / n + 0.85 * sum;
        }
        for (int64_t nb : v.neighbors) {
          send(nb, v.value / static_cast<double>(v.neighbors.size()));
        }
      });
  ASSERT_EQ(ranks.size(), static_cast<size_t>(n));
  std::sort(ranks.begin(), ranks.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  EXPECT_EQ(ranks[0].first, 0);  // The hub collects the most rank.
  double total = 0.0;
  for (const auto& [id, rank] : ranks) {
    total += rank;
  }
  EXPECT_NEAR(total, 1.0, 0.05);  // Rank is (approximately) conserved.
}

TEST(Pregel, ConnectedComponentsConverges) {
  // Two components: {0,1,2} chain and {3,4} pair.
  std::vector<std::vector<GraphVertex>> parts(3);
  auto add = [&](int64_t id, std::vector<int64_t> nbrs) {
    GraphVertex gv;
    gv.id = id;
    gv.neighbors = std::move(nbrs);
    parts[PregelPartitionOf(id, 3)].push_back(std::move(gv));
  };
  add(0, {1});
  add(1, {0, 2});
  add(2, {1});
  add(3, {4});
  add(4, {3});
  auto labels = RunPregel<int64_t, int64_t>(
      parts, 8, [](int64_t id, int) { return id; },
      [](PregelVertex<int64_t>& v, const std::vector<int64_t>& inbox, int step,
         const MessageSender<int64_t>& send) {
        int64_t best = v.value;
        for (int64_t m : inbox) {
          best = std::min(best, m);
        }
        const bool changed = best != v.value || step == 0;
        v.value = best;
        if (changed) {
          for (int64_t nb : v.neighbors) {
            send(nb, v.value);
          }
        }
      });
  std::map<int64_t, int64_t> by_id(labels.begin(), labels.end());
  EXPECT_EQ(by_id[0], 0);
  EXPECT_EQ(by_id[1], 0);
  EXPECT_EQ(by_id[2], 0);
  EXPECT_EQ(by_id[3], 3);
  EXPECT_EQ(by_id[4], 3);
}

}  // namespace
}  // namespace ursa

// ---- Additional API coverage: GroupByKey and Join. ----
namespace ursa {
namespace {

TEST(DatasetApi, GroupByKeyCollectsAllValues) {
  UrsaContext ctx;
  std::vector<std::vector<std::pair<std::string, int>>> parts = {
      {{"a", 1}, {"b", 2}},
      {{"a", 3}, {"c", 4}},
      {{"a", 5}, {"b", 6}},
  };
  auto grouped = ctx.Parallelize<std::pair<std::string, int>>(parts).GroupByKey(2);
  std::map<std::string, std::vector<int>> result;
  for (auto& [k, values] : grouped.Collect()) {
    std::sort(values.begin(), values.end());
    result[k] = values;
  }
  EXPECT_EQ(result["a"], (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(result["b"], (std::vector<int>{2, 6}));
  EXPECT_EQ(result["c"], (std::vector<int>{4}));
}

TEST(DatasetApi, JoinMatchesKeysAcrossDatasets) {
  UrsaContext ctx;
  auto orders = ctx.Parallelize<std::pair<int, double>>(
      {{{1, 10.0}, {2, 20.0}}, {{1, 30.0}, {3, 99.0}}});
  auto names = ctx.Parallelize<std::pair<int, std::string>>(
      {{{1, std::string("ada")}}, {{2, std::string("bob")}}});
  auto joined = orders.Join(names, 2);
  std::multimap<int, std::pair<double, std::string>> result;
  for (const auto& [k, vw] : joined.Collect()) {
    result.emplace(k, vw);
  }
  EXPECT_EQ(result.size(), 3u);  // Key 3 has no match.
  EXPECT_EQ(result.count(1), 2u);
  auto it = result.find(2);
  ASSERT_NE(it, result.end());
  EXPECT_DOUBLE_EQ(it->second.first, 20.0);
  EXPECT_EQ(it->second.second, "bob");
}

TEST(DatasetApi, JoinThenReduceByKeyMatchesSerialReference) {
  // A two-input CPU op (the join) whose output is serialized into a second
  // shuffle: total order amount per customer name, against a serial fold.
  UrsaContext ctx;
  std::vector<std::vector<std::pair<int, std::string>>> customers(2);
  std::map<int, std::string> name_of;
  for (int cid = 0; cid < 40; ++cid) {
    if (cid % 5 == 4) {
      continue;  // Orders for these customers have no match.
    }
    // Several customers share a name, so the reduce merges across join keys.
    const std::string name = "c" + std::to_string(cid % 7);
    customers[cid % 2].emplace_back(cid, name);
    name_of[cid] = name;
  }
  std::vector<std::vector<std::pair<int, int64_t>>> orders(3);
  std::map<std::string, int64_t> expected;
  uint64_t state = 777;
  for (int i = 0; i < 600; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int cid = static_cast<int>(state % 40);
    const int64_t amount = static_cast<int64_t>((state >> 8) % 1000);
    orders[i % 3].emplace_back(cid, amount);
    if (auto it = name_of.find(cid); it != name_of.end()) {
      expected[it->second] += amount;
    }
  }
  auto totals =
      ctx.Parallelize<std::pair<int, int64_t>>(orders)
          .Join(ctx.Parallelize<std::pair<int, std::string>>(customers), 2)
          .Map([](const std::pair<int, std::pair<int64_t, std::string>>& row) {
            return std::make_pair(row.second.second, row.second.first);
          })
          .ReduceByKey([](int64_t a, int64_t b) { return a + b; }, 3)
          .Collect();
  std::map<std::string, int64_t> actual;
  for (const auto& [name, total] : totals) {
    EXPECT_TRUE(actual.emplace(name, total).second) << "duplicate key " << name;
  }
  EXPECT_EQ(actual, expected);
  // Two join-side shuffles of 2 partitions each, then the 3-way reduce shuffle.
  EXPECT_EQ(ctx.runtime().monotasks_executed(ResourceType::kNetwork), 2 + 2 + 3);
}

}  // namespace
}  // namespace ursa
