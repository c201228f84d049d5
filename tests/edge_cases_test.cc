// Edge cases across modules that the mainline tests don't reach.
#include <gtest/gtest.h>

#include "src/dag/plan.h"
#include "src/net/flow_simulator.h"
#include "src/sql/parser.h"

namespace ursa {
namespace {

TEST(PlanEdge, OpsWithUpdatesDoNotCollapse) {
  // Iterative in-place updates (Op::Update) must keep their op boundaries:
  // the fuse rule requires side-effect-free members.
  OpGraph graph;
  const DataId input = graph.CreateExternalData({10.0, 10.0}, "in");
  const DataId state = graph.CreateData(2, "state");
  const DataId out = graph.CreateData(2, "out");
  OpHandle init = graph.CreateOp(ResourceType::kCpu, "init").Read(input).Create(state);
  OpHandle step =
      graph.CreateOp(ResourceType::kCpu, "step").Read(state).Update(state).Create(out);
  init.To(step, DepKind::kAsync);
  const ExecutionPlan plan = ExecutionPlan::Build(graph, 1);
  EXPECT_EQ(plan.cops().size(), 2u);  // No fusion across the Update op.
  EXPECT_EQ(plan.stages().size(), 1u);  // Still the same co-located stage.
}

TEST(PlanEdge, SingleOpJob) {
  OpGraph graph;
  const DataId input = graph.CreateExternalData({5.0}, "in");
  graph.CreateOp(ResourceType::kCpu, "only").Read(input).SetParallelism(1);
  const ExecutionPlan plan = ExecutionPlan::Build(graph, 1);
  EXPECT_EQ(plan.monotasks().size(), 1u);
  EXPECT_EQ(plan.tasks().size(), 1u);
  EXPECT_EQ(plan.stages().size(), 1u);
  EXPECT_TRUE(plan.task(0).sync_parent_stages.empty());
}

TEST(FlowEdge, BandwidthChangeMidFlow) {
  Simulator sim;
  FlowSimulator net(&sim, 2, 1e9, 1e9);
  double done = -1.0;
  net.StartFlow(0, 1, 1e9, [&] { done = sim.Now(); });  // 1 s at 1 GB/s.
  sim.Schedule(0.5, [&] { net.SetDownlink(1, 0.5e9); });
  sim.Run();
  // Half transferred in 0.5 s, the rest at half rate: 0.5 + 1.0 = 1.5 s.
  EXPECT_NEAR(done, 1.5, 1e-6);
}

TEST(FlowEdge, ManyConcurrentFlowsConverge) {
  Simulator sim;
  FlowSimulator net(&sim, 8, 1e9, 1e9);
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    net.StartFlow(i % 8, (i + 3) % 8, 1e7 * (1 + i % 5), [&] { ++completed; });
  }
  sim.Run();
  EXPECT_EQ(completed, 200);
}

TEST(SqlParserEdge, QualifiedAggregateAndAliases) {
  const SelectStatement s =
      ParseSql("SELECT MAX(t.price) AS top, t.region FROM t GROUP BY t.region");
  EXPECT_EQ(s.items[0].agg, AggFn::kMax);
  EXPECT_EQ(s.items[0].column, "t.price");
  EXPECT_EQ(s.items[0].alias, "top");
  EXPECT_EQ(s.items[1].column, "t.region");
}

TEST(SqlParserEdge, NegativeAndFloatLiterals) {
  const SelectStatement s = ParseSql("SELECT a FROM t WHERE a >= -3 AND b < 2.5");
  ASSERT_EQ(s.where.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(s.where[0].literal), -3);
  EXPECT_DOUBLE_EQ(std::get<double>(s.where[1].literal), 2.5);
}

TEST(SqlParserEdge, CaseInsensitiveKeywords) {
  const SelectStatement s = ParseSql("select count(*) from t where x = 1 limit 3");
  EXPECT_EQ(s.items[0].agg, AggFn::kCount);
  EXPECT_EQ(*s.limit, 3);
}

TEST(SqlValueEdge, CompareAndHash) {
  EXPECT_LT(CompareValues(int64_t{2}, 2.5), 0);
  EXPECT_EQ(CompareValues(int64_t{2}, 2.0), 0);
  EXPECT_GT(CompareValues(std::string("b"), std::string("a")), 0);
  EXPECT_EQ(HashValue(std::string("x")), HashValue(std::string("x")));
}

}  // namespace
}  // namespace ursa
