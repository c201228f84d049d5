// Unit tests for the determinism lint (tools/detlint): one golden case per
// banned pattern, comment/suppression/allowlist behavior, and the repo gate
// invariant that the checked-in allowlist has no stale entries.
#include "tools/detlint/detlint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ursa {
namespace detlint {
namespace {

std::vector<std::string> RulesHit(const std::string& path, const std::string& content) {
  std::vector<std::string> rules;
  for (const Finding& finding : LintContent(path, content)) {
    rules.push_back(finding.rule);
  }
  return rules;
}

bool Hit(const std::string& path, const std::string& content, const std::string& rule) {
  const auto rules = RulesHit(path, content);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

TEST(Detlint, FlagsWallClockReads) {
  EXPECT_TRUE(Hit("src/exec/worker.cc",
                  "auto t = std::chrono::steady_clock::now();\n", "wallclock"));
  EXPECT_TRUE(Hit("src/exec/worker.cc",
                  "auto t = std::chrono::system_clock::now();\n", "wallclock"));
  EXPECT_TRUE(Hit("src/exec/worker.cc",
                  "auto t = std::chrono::high_resolution_clock::now();\n", "wallclock"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "time_t t = time(nullptr);\n", "wallclock"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "gettimeofday(&tv, nullptr);\n", "wallclock"));
  EXPECT_TRUE(
      Hit("src/exec/worker.cc", "clock_gettime(CLOCK_MONOTONIC, &ts);\n", "wallclock"));
}

TEST(Detlint, WallClockIgnoresSimilarIdentifiers) {
  // Word-boundary safety: these contain "time("-like substrings but are
  // simulation-time accessors, not host-clock calls.
  EXPECT_FALSE(Hit("src/exec/worker.cc", "const double d = draw_time(rng);\n", "wallclock"));
  EXPECT_FALSE(Hit("src/exec/worker.cc", "rec.finish_time() - rec.submit_time();\n",
                   "wallclock"));
  EXPECT_FALSE(Hit("src/exec/worker.cc", "double queued_time = 0.0;\n", "wallclock"));
  EXPECT_FALSE(Hit("src/exec/worker.cc", "ApproxProcessingTime(r);\n", "wallclock"));
}

TEST(Detlint, FlagsRawRandomness) {
  EXPECT_TRUE(Hit("src/exec/worker.cc", "int x = rand();\n", "raw-random"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "srand(42);\n", "raw-random"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "std::random_device rd;\n", "raw-random"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "std::mt19937 gen(rd());\n", "raw-random"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "std::mt19937_64 gen;\n", "raw-random"));
  EXPECT_TRUE(
      Hit("src/exec/worker.cc", "std::default_random_engine e;\n", "raw-random"));
}

TEST(Detlint, RawRandomIgnoresSeededRngIdioms) {
  EXPECT_FALSE(Hit("src/exec/worker.cc", "Rng rng(seed);\n", "raw-random"));
  EXPECT_FALSE(Hit("src/exec/worker.cc", "transient_rng_.Bernoulli(p);\n", "raw-random"));
  // `rand` as a substring of an identifier must not fire.
  EXPECT_FALSE(Hit("src/exec/worker.cc", "int operand = 3;\n", "raw-random"));
}

TEST(Detlint, FlagsUnorderedContainersOnlyInCoreDirs) {
  const std::string decl = "std::unordered_map<JobId, int> by_job;\n";
  EXPECT_TRUE(Hit("src/scheduler/ursa_scheduler.cc", decl, "no-unordered-in-core"));
  EXPECT_TRUE(Hit("src/exec/job_manager.cc", decl, "no-unordered-in-core"));
  EXPECT_TRUE(Hit("src/net/flow_simulator.h", decl, "no-unordered-in-core"));
  EXPECT_TRUE(Hit("src/sim/simulator.cc", decl, "no-unordered-in-core"));
  // Outside the order-sensitive core the rule stays quiet.
  EXPECT_FALSE(Hit("src/runtime/local_runtime.h", decl, "no-unordered-in-core"));
  EXPECT_FALSE(Hit("src/api/dataset.h", decl, "no-unordered-in-core"));
  EXPECT_TRUE(
      Hit("src/exec/worker.h", "std::unordered_set<EventId> s;\n", "no-unordered-in-core"));
}

TEST(Detlint, FlagsPointerKeyedOrderedContainers) {
  EXPECT_TRUE(Hit("src/exec/worker.cc", "std::map<Worker*, int> by_worker;\n",
                  "pointer-key-ordered"));
  EXPECT_TRUE(
      Hit("src/exec/worker.cc", "std::set<const Job*> jobs;\n", "pointer-key-ordered"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "std::map<ursa::Worker*, double> m;\n",
                  "pointer-key-ordered"));
  // Value-position pointers are fine: ordering is by the key.
  EXPECT_FALSE(Hit("src/exec/worker.cc", "std::map<JobId, Worker*> m;\n",
                   "pointer-key-ordered"));
  EXPECT_FALSE(
      Hit("src/exec/worker.cc", "std::map<JobId, int> m;\n", "pointer-key-ordered"));
}

TEST(Detlint, FlagsThreadPrimitivesOutsideRuntime) {
  EXPECT_TRUE(Hit("src/exec/worker.h", "std::mutex mu_;\n", "lock-outside-runtime"));
  EXPECT_TRUE(
      Hit("src/sim/simulator.h", "std::atomic<int> n{0};\n", "lock-outside-runtime"));
  EXPECT_TRUE(Hit("src/scheduler/ursa_scheduler.cc", "std::thread t(Body);\n",
                  "lock-outside-runtime"));
  EXPECT_TRUE(Hit("src/exec/worker.h", "#include <mutex>\n", "lock-outside-runtime"));
  EXPECT_TRUE(Hit("src/common/logging.cc", "#include <atomic>\n", "lock-outside-runtime"));
  EXPECT_TRUE(Hit("src/fault/fault_stats.h", "#include <thread>\n", "lock-outside-runtime"));
  // LocalRuntime really runs threads; code outside src/ is out of scope.
  EXPECT_FALSE(Hit("src/runtime/local_runtime.h", "std::mutex mu_;\n#include <thread>\n",
                   "lock-outside-runtime"));
  EXPECT_FALSE(Hit("tests/tsan_race_canary.cc", "std::mutex mu;\n", "lock-outside-runtime"));
  // Word boundaries and comments: similar names and prose are not findings.
  EXPECT_FALSE(Hit("src/exec/worker.h", "std::mutex_like x;\n", "lock-outside-runtime"));
  EXPECT_FALSE(Hit("src/exec/worker.h", "int threads = 0;  // no std::thread here\n",
                   "lock-outside-runtime"));
}

TEST(Detlint, FlagsStyleViolations) {
  EXPECT_TRUE(Hit("src/exec/worker.cc", "\tint x = 0;\n", "style-tabs"));
  EXPECT_TRUE(Hit("src/exec/worker.cc", "int x = 0;  \n", "style-trailing-ws"));
  EXPECT_FALSE(Hit("src/exec/worker.cc", "int x = 0;\n", "style-tabs"));
  EXPECT_FALSE(Hit("src/exec/worker.cc", "int x = 0;\n", "style-trailing-ws"));
}

TEST(Detlint, CommentedPatternsAreNotFindings) {
  EXPECT_FALSE(Hit("src/exec/worker.cc",
                   "// never call rand() in simulation code\n", "raw-random"));
  EXPECT_FALSE(Hit("src/scheduler/p.cc",
                   "int x = 0;  // unlike std::unordered_map, this is ordered\n",
                   "no-unordered-in-core"));
  // Code before the comment still counts.
  EXPECT_TRUE(Hit("src/exec/worker.cc", "int x = rand();  // FIXME\n", "raw-random"));
}

TEST(Detlint, InlineSuppressionNamesTheRule) {
  EXPECT_FALSE(Hit("src/exec/worker.cc",
                   "int x = rand();  // detlint: allow(raw-random)\n", "raw-random"));
  // Suppressing one rule does not hide another on the same line.
  EXPECT_TRUE(Hit("src/exec/worker.cc",
                  "int x = rand();\t// detlint: allow(wallclock)\n", "raw-random"));
}

TEST(Detlint, GoldenReportFormat) {
  const std::string content = "int a = rand();\nint b = 0;\nint c = rand();\n";
  const std::vector<Finding> findings = LintContent("src/exec/x.cc", content);
  ASSERT_EQ(findings.size(), 2u);
  const std::string report = FormatFindings(findings);
  const std::string expected =
      "src/exec/x.cc:1: [raw-random] unseeded/global randomness; all simulation "
      "randomness must flow from the seeded Rng in src/common/rng.h\n"
      "src/exec/x.cc:3: [raw-random] unseeded/global randomness; all simulation "
      "randomness must flow from the seeded Rng in src/common/rng.h\n";
  EXPECT_EQ(report, expected);
}

TEST(Detlint, RuleNamesAreStable) {
  const std::vector<std::string> expected = {
      "wallclock",           "raw-random",           "no-unordered-in-core",
      "pointer-key-ordered", "lock-outside-runtime", "style-tabs",
      "style-trailing-ws"};
  EXPECT_EQ(RuleNames(), expected);
}

// End-to-end over the real tree: the checked-in allowlist must load, every
// entry must still be needed, and src/ must be clean. This is the same
// invocation CI gates on.
TEST(Detlint, RepoSourcesAreClean) {
  Options options;
  options.repo_root = URSA_SOURCE_DIR;
  options.roots = {"src"};
  options.allowlist_path = std::string(URSA_SOURCE_DIR) + "/.detlint-allowlist";
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(ursa::detlint::Run(options, &findings, &error)) << error;
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(Detlint, MalformedAllowlistIsAnError) {
  Options options;
  options.repo_root = URSA_SOURCE_DIR;
  options.roots = {"src"};
  options.allowlist_path = std::string(URSA_SOURCE_DIR) + "/ROADMAP.md";  // Not an allowlist.
  std::vector<Finding> findings;
  std::string error;
  EXPECT_FALSE(ursa::detlint::Run(options, &findings, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Detlint, MissingRootIsAnError) {
  Options options;
  options.repo_root = URSA_SOURCE_DIR;
  options.roots = {"no/such/dir"};
  std::vector<Finding> findings;
  std::string error;
  EXPECT_FALSE(ursa::detlint::Run(options, &findings, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace detlint
}  // namespace ursa
