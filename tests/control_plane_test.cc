// Control-plane message layer (DESIGN.md section 14): exactly-once dispatch
// under loss and duplication, epoch fencing, reliable completion reports
// across scheduler downtime, best-effort heartbeats and journal bookkeeping.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/ctrl/control_plane.h"
#include "src/ctrl/journal.h"
#include "src/dag/plan.h"
#include "src/exec/cluster.h"
#include "src/fault/fault_stats.h"
#include "src/sim/simulator.h"

namespace ursa {
namespace {

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest() {
    config_.num_workers = 2;
    config_.worker.cores = 4;
    config_.worker.cpu_byte_rate = 100e6;
    cluster_ = std::make_unique<Cluster>(&sim_, config_);
  }

  std::unique_ptr<ControlPlane> MakePlane(const ControlPlaneConfig& cc) {
    return std::make_unique<ControlPlane>(&sim_, cluster_.get(), cc, &stats_);
  }

  static RunnableMonotask CountingMonotask(int* completions) {
    RunnableMonotask run;
    run.type = ResourceType::kCpu;
    run.work = 1e6;  // 10 ms at 100 MB/s.
    run.input_bytes = 1e6;
    run.on_complete = [completions] { ++*completions; };
    return run;
  }

  static MsgKey Key(MonotaskId m, int attempt = 0, int channel = 0) {
    MsgKey key;
    key.job = 0;
    key.monotask = m;
    key.attempt = attempt;
    key.channel = channel;
    return key;
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
  FaultCounters stats_;
};

TEST_F(ControlPlaneTest, DisabledIsSynchronousPassThrough) {
  ControlPlaneConfig cc;  // enabled = false.
  auto plane = MakePlane(cc);
  int completions = 0;
  plane->Dispatch(0, Key(0), CountingMonotask(&completions));
  int notified = 0;
  plane->NotifyScheduler(0, [&] { ++notified; });
  int beats = 0;
  plane->Heartbeat(0, [&] { ++beats; });
  // The pass-through path schedules no messages and draws no randomness.
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(beats, 1);
  sim_.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(stats_.msgs_sent, 0);
}

TEST_F(ControlPlaneTest, DispatchSurvivesHeavyLossExactlyOnce) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.loss_prob = 0.7;
  auto plane = MakePlane(cc);
  int completions = 0;
  plane->Dispatch(0, Key(0), CountingMonotask(&completions));
  sim_.Run();
  // Retransmission pushes the dispatch through; dedup keeps it single.
  EXPECT_EQ(completions, 1);
  const FaultCounters& c = stats_;
  EXPECT_GT(c.msgs_sent, 0);
  EXPECT_TRUE(plane->Delivered(0, Key(0)));
  EXPECT_FALSE(plane->Delivered(1, Key(0)));
  EXPECT_FALSE(plane->Delivered(0, Key(1)));
}

TEST_F(ControlPlaneTest, DuplicatedDispatchRunsOnce) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.dup_prob = 1.0;  // Every send is duplicated.
  auto plane = MakePlane(cc);
  int completions = 0;
  plane->Dispatch(0, Key(0), CountingMonotask(&completions));
  sim_.Run();
  EXPECT_EQ(completions, 1);
  const FaultCounters& c = stats_;
  EXPECT_GT(c.msgs_duplicated, 0);
  EXPECT_GT(c.dup_suppressed, 0);
}

TEST_F(ControlPlaneTest, EpochFencingDiscardsStaleDispatch) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  int completions = 0;
  plane->Dispatch(0, Key(0), CountingMonotask(&completions));
  plane->BumpEpoch();  // Crash before the message lands.
  sim_.Run();
  EXPECT_EQ(completions, 0);
  EXPECT_FALSE(plane->Delivered(0, Key(0)));
  EXPECT_GT(stats_.msgs_fenced, 0);
}

TEST_F(ControlPlaneTest, CompletionRetriesAcrossSchedulerDowntime) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  bool down = true;
  plane->set_down_check([&down] { return down; });
  int delivered = 0;
  plane->set_completion_handler(
      [&](const ControlPlane::CompletionMsg&) { ++delivered; });
  ControlPlane::CompletionMsg msg;
  msg.job = 0;
  msg.monotask = 3;
  msg.worker = 1;
  plane->CompletionToScheduler(msg);
  sim_.Schedule(1.0, [&] { down = false; });
  sim_.Run();
  // The report was refused while down and retried until accepted.
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(stats_.retransmits, 0);
  EXPECT_GT(sim_.Now(), 1.0);
}

TEST_F(ControlPlaneTest, HeartbeatsAreBestEffort) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.loss_prob = 0.5;
  auto plane = MakePlane(cc);
  int beats = 0;
  for (int i = 0; i < 200; ++i) {
    plane->Heartbeat(0, [&] { ++beats; });
  }
  sim_.Run();
  // Lost heartbeats stay lost: no retransmission on the unreliable channel.
  EXPECT_GT(beats, 0);
  EXPECT_LT(beats, 200);
  EXPECT_EQ(stats_.retransmits, 0);
}

TEST_F(ControlPlaneTest, ForgetJobDropsDedupState) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  int completions = 0;
  plane->Dispatch(0, Key(0), CountingMonotask(&completions));
  sim_.Run();
  ASSERT_TRUE(plane->Delivered(0, Key(0)));
  plane->ForgetJob(0);
  EXPECT_FALSE(plane->Delivered(0, Key(0)));
}

TEST_F(ControlPlaneTest, MsgKeyOrdersByFullIdentity) {
  MsgKey a = Key(0);
  MsgKey b = Key(0);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  b.incarnation = 1;  // A full restart mints distinct keys.
  EXPECT_TRUE(a < b);
  b = Key(0);
  b.generation = 1;
  EXPECT_TRUE(a < b);
  b = Key(0, /*attempt=*/1);
  EXPECT_TRUE(a < b);
  b = Key(0, 0, /*channel=*/1);
  EXPECT_TRUE(a < b);
}

TEST(ControlPlaneConfigTest, RejectsMalformedProbabilities) {
  Simulator sim;
  ClusterConfig cluster_config;
  cluster_config.num_workers = 1;
  Cluster cluster(&sim, cluster_config);
  FaultCounters stats;
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.loss_prob = 1.0;  // A message that is always lost never delivers.
  EXPECT_DEATH(ControlPlane(&sim, &cluster, cc, &stats), "loss_prob");
}

// A one-task, one-monotask plan: enough structure to fold placement and
// completion records into an image.
ExecutionPlan TinyPlan() {
  OpGraph graph;
  const DataId input = graph.CreateExternalData({5.0}, "in");
  graph.CreateOp(ResourceType::kCpu, "only").Read(input).SetParallelism(1);
  return ExecutionPlan::Build(graph, 1);
}

TEST(JournalTest, CheckpointFoldsPrefixIntoImages) {
  Journal journal;
  const ExecutionPlan plan = TinyPlan();
  const Journal::PlanResolver plan_of = [&plan](JobId) -> const ExecutionPlan& {
    return plan;
  };
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.suffix_length(), 0u);
  journal.Append({JournalKind::kAdmit, 0});
  journal.Append({JournalKind::kStartJm, 0, kInvalidId, kInvalidId, 0});
  journal.Append({JournalKind::kPlace, 0, /*id=*/0, /*worker=*/1, /*gen=*/0,
                  /*x=*/2.0, /*y=*/1.5, /*time=*/3.0});
  EXPECT_EQ(journal.appended(), 3u);
  EXPECT_EQ(journal.suffix_length(), 3u);
  journal.Checkpoint(10.0, plan_of);
  EXPECT_EQ(journal.checkpoints(), 1);
  EXPECT_DOUBLE_EQ(journal.last_checkpoint_time(), 10.0);
  // The checkpoint folds the prefix into per-job images and truncates the
  // records: memory and replay latency track only the post-checkpoint
  // suffix, while appended() keeps counting total write volume.
  EXPECT_EQ(journal.suffix_length(), 0u);
  EXPECT_EQ(journal.live_jobs(), 1u);
  journal.Append({JournalKind::kTaskDone, 0, /*id=*/0, /*worker=*/1, /*gen=*/0,
                  0.0, 0.0, /*time=*/12.0});
  EXPECT_EQ(journal.appended(), 4u);
  EXPECT_EQ(journal.suffix_length(), 1u);
  // Restore = folded image + suffix replay, identical to full-history replay.
  std::map<JobId, JobImage> images = journal.Restore(plan_of);
  ASSERT_EQ(images.size(), 1u);
  const JobImage& image = images.at(0);
  EXPECT_TRUE(image.admitted);
  ASSERT_EQ(image.tasks.size(), 1u);
  EXPECT_EQ(image.tasks[0].worker, 1);
  EXPECT_DOUBLE_EQ(image.tasks[0].allocated_memory, 2.0);
  EXPECT_TRUE(image.tasks[0].done);
  EXPECT_DOUBLE_EQ(image.tasks[0].finish_time, 12.0);
}

TEST(JournalTest, JobFinishDropsImageAndSuffixRecords) {
  Journal journal;
  const ExecutionPlan plan = TinyPlan();
  const Journal::PlanResolver plan_of = [&plan](JobId) -> const ExecutionPlan& {
    return plan;
  };
  journal.Append({JournalKind::kAdmit, 0});
  journal.Append({JournalKind::kAdmit, 1});
  journal.Checkpoint(5.0, plan_of);
  EXPECT_EQ(journal.live_jobs(), 2u);
  journal.Append({JournalKind::kPlace, 0, /*id=*/0, /*worker=*/0, /*gen=*/0,
                  1.0, 1.0, /*time=*/6.0});
  journal.Append({JournalKind::kPlace, 1, /*id=*/0, /*worker=*/1, /*gen=*/0,
                  1.0, 1.0, /*time=*/6.0});
  // Finishing job 0 retires all its journal state — the checkpoint image and
  // the not-yet-folded suffix record — so replay work stays O(live jobs).
  journal.Append({JournalKind::kJobFinish, 0});
  EXPECT_EQ(journal.live_jobs(), 1u);
  EXPECT_EQ(journal.suffix_length(), 1u);
  EXPECT_EQ(journal.appended(), 5u);  // Write volume still counts everything.
  std::map<JobId, JobImage> images = journal.Restore(plan_of);
  EXPECT_EQ(images.count(0), 0u);
  ASSERT_EQ(images.count(1), 1u);
  EXPECT_EQ(images.at(1).tasks[0].worker, 1);
}

}  // namespace
}  // namespace ursa
