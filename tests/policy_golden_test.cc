// Golden policy-conformance suite (DESIGN.md section 13): ten small,
// hand-analyzable job DAGs are run through (a) the stage-criticality
// analysis behind Graphene ordering and (b) a full placement run under every
// registered ordering policy, on a fixed 4-worker cluster. The exact
// analysis numbers and the exact placement sequence (time, job, task, stage,
// worker — every decision, in order) are compared against the committed
// golden file:
//
//   tests/golden/policy_conformance.golden
//
// Any change to ordering, scoring, criticality or tie-breaking shows up as
// a diff here, reviewable line by line. To regenerate after an intentional
// change:
//
//   URSA_REGEN_GOLDEN=1 ./tests/policy_golden_test
//
// which rewrites the golden in the source tree (the path is compiled in via
// URSA_SOURCE_DIR); rerun without the variable to confirm, then commit the
// new golden alongside the change that moved it.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dag/critical_path.h"
#include "src/dag/job.h"
#include "src/driver/experiment.h"
#include "src/obs/trace.h"
#include "tests/golden_util.h"

namespace ursa {
namespace {

constexpr char kGoldenPath[] = URSA_SOURCE_DIR "/tests/golden/policy_conformance.golden";

// --- The DAG zoo: small graphs with hand-checkable critical paths. ---

struct GoldenCase {
  std::string name;
  JobSpec spec;
};

JobSpec BaseSpec(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.klass = name;  // One job class per shape in the run records.
  spec.declared_memory_bytes = 64.0 * 1024 * 1024;
  spec.seed = 7;
  return spec;
}

// Single CPU stage, `parts` tasks of `bytes` each. Trivial baseline: one
// stage, trivially troublesome (it is the whole critical path).
GoldenCase MapOnly(const std::string& name, int parts, double bytes) {
  GoldenCase c{name, BaseSpec(name)};
  OpGraph& g = c.spec.graph;
  const DataId in = g.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts), bytes), "in");
  const DataId out = g.CreateData(parts, "out");
  g.CreateOp(ResourceType::kCpu, "map").Read(in).Create(out);
  return c;
}

// The paper's reduceByKey skeleton: ser(CPU) -sync-> shuffle(NET) -async->
// deser(CPU). Two stages; both lie on the single root-to-sink path, so both
// are troublesome at any threshold.
GoldenCase TwoStage(const std::string& name, int in_parts, int out_parts, double bytes) {
  GoldenCase c{name, BaseSpec(name)};
  OpGraph& g = c.spec.graph;
  const DataId in = g.CreateExternalData(
      std::vector<double>(static_cast<size_t>(in_parts), bytes), "in");
  const DataId msg = g.CreateData(in_parts, "msg");
  const DataId shuffled = g.CreateData(out_parts, "shuffled");
  const DataId out = g.CreateData(out_parts, "out");
  OpHandle ser = g.CreateOp(ResourceType::kCpu, "ser").Read(in).Create(msg);
  OpHandle shuffle = g.CreateOp(ResourceType::kNetwork, "shuffle").Read(msg).Create(shuffled);
  OpHandle deser = g.CreateOp(ResourceType::kCpu, "deser").Read(shuffled).Create(out);
  ser.To(shuffle, DepKind::kSync);
  shuffle.To(deser, DepKind::kAsync);
  return c;
}

// Three stages in a chain: ser -> shuffle -> mid -> shuffle2 -> tail, with
// `mid_complexity` scaling the middle stage's CPU work.
GoldenCase Chain3(const std::string& name, int parts, double bytes, double mid_complexity) {
  GoldenCase c{name, BaseSpec(name)};
  OpGraph& g = c.spec.graph;
  const DataId in = g.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts), bytes), "in");
  const DataId msg = g.CreateData(parts, "msg");
  const DataId s1 = g.CreateData(parts, "s1");
  const DataId mid = g.CreateData(parts, "mid");
  const DataId s2 = g.CreateData(parts, "s2");
  const DataId out = g.CreateData(parts, "out");
  OpCostModel heavy;
  heavy.cpu_complexity = mid_complexity;
  OpHandle ser = g.CreateOp(ResourceType::kCpu, "ser").Read(in).Create(msg);
  OpHandle sh1 = g.CreateOp(ResourceType::kNetwork, "sh1").Read(msg).Create(s1);
  OpHandle m = g.CreateOp(ResourceType::kCpu, "mid").Read(s1).Create(mid).SetCost(heavy);
  OpHandle sh2 = g.CreateOp(ResourceType::kNetwork, "sh2").Read(mid).Create(s2);
  OpHandle tail = g.CreateOp(ResourceType::kCpu, "tail").Read(s2).Create(out);
  ser.To(sh1, DepKind::kSync);
  sh1.To(m, DepKind::kAsync);
  m.To(sh2, DepKind::kSync);
  sh2.To(tail, DepKind::kAsync);
  return c;
}

// Diamond: one source stage fans out into two parallel shuffle+deser
// branches that join in a final shuffle. `heavy_scale` raises branch A's
// CPU complexity — which stretches its *runtime* but not its byte volume,
// so the byte-based criticality analysis keeps both branches troublesome
// (visible in the golden: the skewed and balanced diamonds analyze
// identically while their placement sequences differ).
GoldenCase Diamond(const std::string& name, int parts, double bytes, double heavy_scale) {
  GoldenCase c{name, BaseSpec(name)};
  OpGraph& g = c.spec.graph;
  const DataId in = g.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts), bytes), "in");
  const DataId msg = g.CreateData(parts, "msg");
  const DataId sa = g.CreateData(parts, "sa");
  const DataId ra = g.CreateData(parts, "ra");
  const DataId sb = g.CreateData(parts, "sb");
  const DataId rb = g.CreateData(parts, "rb");
  const DataId sj = g.CreateData(parts, "sj");
  const DataId out = g.CreateData(parts, "out");
  OpCostModel heavy;
  heavy.cpu_complexity = heavy_scale;
  OpHandle ser = g.CreateOp(ResourceType::kCpu, "ser").Read(in).Create(msg);
  OpHandle shA = g.CreateOp(ResourceType::kNetwork, "shA").Read(msg).Create(sa);
  OpHandle deA = g.CreateOp(ResourceType::kCpu, "deA").Read(sa).Create(ra).SetCost(heavy);
  OpHandle shB = g.CreateOp(ResourceType::kNetwork, "shB").Read(msg).Create(sb);
  OpHandle deB = g.CreateOp(ResourceType::kCpu, "deB").Read(sb).Create(rb);
  OpHandle shJ = g.CreateOp(ResourceType::kNetwork, "shJ").Read(ra).Read(rb).Create(sj);
  OpHandle deJ = g.CreateOp(ResourceType::kCpu, "deJ").Read(sj).Create(out);
  ser.To(shA, DepKind::kSync);
  shA.To(deA, DepKind::kAsync);
  ser.To(shB, DepKind::kSync);
  shB.To(deB, DepKind::kAsync);
  deA.To(shJ, DepKind::kSync);
  deB.To(shJ, DepKind::kSync);
  shJ.To(deJ, DepKind::kAsync);
  return c;
}

// Two independent sources joining in one shuffle: the heavier source is the
// long pole; the lighter source stage is a non-troublesome sibling.
GoldenCase Join(const std::string& name, int parts, double left_bytes, double right_bytes) {
  GoldenCase c{name, BaseSpec(name)};
  OpGraph& g = c.spec.graph;
  const DataId lin = g.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts), left_bytes), "lin");
  const DataId rin = g.CreateExternalData(
      std::vector<double>(static_cast<size_t>(parts), right_bytes), "rin");
  const DataId lm = g.CreateData(parts, "lm");
  const DataId rm = g.CreateData(parts, "rm");
  const DataId sj = g.CreateData(parts, "sj");
  const DataId out = g.CreateData(parts, "out");
  OpHandle lser = g.CreateOp(ResourceType::kCpu, "lser").Read(lin).Create(lm);
  OpHandle rser = g.CreateOp(ResourceType::kCpu, "rser").Read(rin).Create(rm);
  OpHandle shJ = g.CreateOp(ResourceType::kNetwork, "join").Read(lm).Read(rm).Create(sj);
  OpHandle deJ = g.CreateOp(ResourceType::kCpu, "deser").Read(sj).Create(out);
  lser.To(shJ, DepKind::kSync);
  rser.To(shJ, DepKind::kSync);
  shJ.To(deJ, DepKind::kAsync);
  return c;
}

std::vector<GoldenCase> MakeCases() {
  std::vector<GoldenCase> cases;
  cases.push_back(MapOnly("map-small", 4, 50.0 * 1024 * 1024));
  cases.push_back(MapOnly("map-wide", 8, 20.0 * 1024 * 1024));
  cases.push_back(TwoStage("rbk-narrowing", 4, 2, 40.0 * 1024 * 1024));
  cases.push_back(TwoStage("rbk-wide", 6, 6, 25.0 * 1024 * 1024));
  cases.push_back(Chain3("chain-heavy-mid", 4, 30.0 * 1024 * 1024, 4.0));
  cases.push_back(Chain3("chain-flat", 4, 30.0 * 1024 * 1024, 1.0));
  cases.push_back(Diamond("diamond-skewed", 3, 20.0 * 1024 * 1024, 6.0));
  cases.push_back(Diamond("diamond-balanced", 3, 20.0 * 1024 * 1024, 1.0));
  cases.push_back(Join("join-skewed", 4, 60.0 * 1024 * 1024, 6.0 * 1024 * 1024));
  cases.push_back(Join("join-balanced", 4, 30.0 * 1024 * 1024, 30.0 * 1024 * 1024));
  return cases;
}

// --- Golden text generation. ---

// Section 1: per-case criticality analysis at Graphene's threshold. %.4f
// on megabyte-scaled values keeps the text readable while still exact for
// these hand-sized inputs.
std::string CriticalitySection(const std::vector<GoldenCase>& cases) {
  std::string out =
      "== criticality (threshold " + std::to_string(kGrapheneThreshold) + ") ==\n";
  for (const GoldenCase& c : cases) {
    const ExecutionPlan plan = ExecutionPlan::Build(c.spec.graph, c.spec.seed);
    const StageCriticality crit = AnalyzeStages(plan, kGrapheneThreshold);
    AppendF(&out, "case %s: stages=%zu critical_path_mb=%.4f\n", c.name.c_str(),
            plan.stages().size(), crit.critical_path / (1024.0 * 1024.0));
    for (const StageSpec& stage : plan.stages()) {
      const size_t s = static_cast<size_t>(stage.id);
      AppendF(&out,
              "  stage %d (%s): tasks=%d work_mb=%.4f top_mb=%.4f bottom_mb=%.4f "
              "troublesome=%d bottom_share=%.4f\n",
              stage.id, stage.name.c_str(), stage.num_tasks,
              crit.work[s] / (1024.0 * 1024.0), crit.top_level[s] / (1024.0 * 1024.0),
              crit.bottom_level[s] / (1024.0 * 1024.0), crit.IsTroublesome(stage.id) ? 1 : 0,
              crit.BottomShare(stage.id));
    }
  }
  return out;
}

// Section 2: the full placement sequence of the whole zoo, submitted two
// seconds apart on a 4-worker cluster, per registered ordering policy.
std::string PlacementSection(const std::vector<GoldenCase>& cases) {
  Workload workload;
  workload.name = "golden-zoo";
  for (size_t i = 0; i < cases.size(); ++i) {
    WorkloadJob wj;
    wj.spec = cases[i].spec;
    wj.submit_time = 2.0 * static_cast<double>(i);
    workload.jobs.push_back(std::move(wj));
  }

  std::string out;
  for (const OrderingPolicyInfo& info : OrderingPolicyRegistry()) {
    ExperimentConfig config = UrsaOrderingConfig(info.policy);
    config.cluster.num_workers = 4;
    config.trace = true;
    const ExperimentResult result = RunExperiment(workload, config, info.name);
    out += std::string("== placements ") + info.name + " ==\n";
    for (const TraceEvent& event : result.trace->Snapshot()) {
      if (event.kind == TraceEventKind::kTaskPlaced) {
        AppendF(&out, "t=%.4f job=%d task=%d stage=%d worker=%d\n", event.t, event.job,
                event.task, event.stage, event.worker);
      }
    }
  }
  return out;
}

TEST(PolicyGolden, ConformanceMatchesCommittedGolden) {
  const std::vector<GoldenCase> cases = MakeCases();
  std::string actual = "# Policy-conformance golden. Regenerate with URSA_REGEN_GOLDEN=1\n";
  actual += "# ./tests/policy_golden_test (see tests/policy_golden_test.cc).\n";
  actual += CriticalitySection(cases);
  actual += PlacementSection(cases);

  CheckGolden(kGoldenPath, actual);
}

// The golden zoo is only a conformance probe if its text is reproducible:
// generating the placement section twice must be byte-identical.
TEST(PolicyGolden, GoldenTextIsDeterministic) {
  const std::vector<GoldenCase> cases = MakeCases();
  EXPECT_EQ(CriticalitySection(cases), CriticalitySection(cases));
  EXPECT_EQ(PlacementSection(cases), PlacementSection(cases));
}

}  // namespace
}  // namespace ursa
