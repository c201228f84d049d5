// Control-plane message layer (DESIGN.md section 14): exactly-once dispatch
// under loss and duplication, epoch fencing, reliable completion reports
// across scheduler downtime, best-effort heartbeats and journal bookkeeping.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
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

  // A plane whose scheduler end records every report it accepts.
  std::unique_ptr<ControlPlane> MakePlane(const ControlPlaneConfig& cc) {
    auto plane = std::make_unique<ControlPlane>(&sim_, cluster_.get(), cc, &stats_);
    plane->set_completion_handler([this](const CompletionMsg& msg) { reports_.push_back(msg); });
    return plane;
  }

  // A 10 ms CPU monotask dispatched under `key`.
  static RunnableMonotask Run(const MsgKey& key) {
    RunnableMonotask run;
    run.key = key;
    run.type = ResourceType::kCpu;
    run.work = 1e6;  // 10 ms at 100 MB/s.
    run.input_bytes = 1e6;
    return run;
  }

  // Monotasks the workers actually executed to completion.
  int Executed() const {
    int64_t n = 0;
    for (int w = 0; w < cluster_->size(); ++w) {
      n += cluster_->worker(w).completed(ResourceType::kCpu);
    }
    return static_cast<int>(n);
  }

  static MsgKey Key(MonotaskId m, int attempt = 0, int channel = 0) {
    MsgKey key;
    key.job = 0;
    key.monotask = m;
    key.attempt = attempt;
    key.channel = channel;
    return key;
  }

  static void ExpectReport(const CompletionMsg& msg, const MsgKey& key, bool failed,
                           WorkerId worker) {
    EXPECT_EQ(msg.key.job, key.job);
    EXPECT_EQ(msg.key.incarnation, key.incarnation);
    EXPECT_EQ(msg.key.monotask, key.monotask);
    EXPECT_EQ(msg.key.generation, key.generation);
    EXPECT_EQ(msg.key.attempt, key.attempt);
    EXPECT_EQ(msg.key.channel, key.channel);
    EXPECT_EQ(msg.failed, failed);
    EXPECT_EQ(msg.worker, worker);
  }

  Simulator sim_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
  FaultCounters stats_;
  std::vector<CompletionMsg> reports_;
};

TEST_F(ControlPlaneTest, DisabledIsSynchronousPassThrough) {
  ControlPlaneConfig cc;  // enabled = false.
  auto plane = MakePlane(cc);
  plane->Dispatch(0, Run(Key(0)));
  CompletionMsg msg;
  msg.key = Key(3, 0, 1);
  msg.failed = true;
  plane->CompletionToScheduler(msg);
  int beats = 0;
  plane->Heartbeat(0, [&] { ++beats; });
  // The pass-through path schedules no messages and draws no randomness.
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0].key.channel, 1);
  EXPECT_TRUE(reports_[0].failed);
  EXPECT_EQ(beats, 1);
  sim_.Run();
  EXPECT_EQ(Executed(), 1);
  ASSERT_EQ(reports_.size(), 2u);  // The worker's report of the dispatch.
  ExpectReport(reports_[1], Key(0), /*failed=*/false, /*worker=*/0);
  EXPECT_EQ(stats_.msgs_sent, 0);
}

// Every outcome a worker reports reaches the scheduler as exactly its
// dispatch's key, the worker it ran on and the right `failed` flag: a
// completion, a transient failure, a submission to a failed worker and a
// queued monotask drained by Fail(). The last two are deferred, never sent
// from inside Submit() or Fail().
TEST_F(ControlPlaneTest, EveryReportPathCarriesItsDispatchIdentity) {
  auto plane = MakePlane(ControlPlaneConfig());  // Pass-through.
  const auto key = [](MonotaskId m) {
    MsgKey k;
    k.job = 2;
    k.incarnation = 1;
    k.monotask = m;
    k.generation = 3;
    k.attempt = static_cast<int>(m) + 1;
    k.channel = 7 * static_cast<int>(m);
    return k;
  };
  plane->Dispatch(0, Run(key(1)));  // Completes at 10 ms.
  cluster_->worker(1).InjectTransientFailures(1);
  plane->Dispatch(1, Run(key(2)));  // Fails at 10 ms.
  sim_.Schedule(0.1, [&] {
    // Worker 1's four cores run monotasks 10-13; monotask 4 queues behind.
    for (MonotaskId m = 10; m < 14; ++m) {
      plane->Dispatch(1, Run(key(m)));
    }
    plane->Dispatch(1, Run(key(4)));
    cluster_->worker(1).Fail();
    plane->Dispatch(1, Run(key(3)));  // Submitted to the failed worker.
    EXPECT_EQ(reports_.size(), 2u);   // Nothing reported synchronously.
  });
  sim_.Run();
  // The running monotasks 10-13 were lost with the worker, unreported.
  ASSERT_EQ(reports_.size(), 4u);
  ExpectReport(reports_[0], key(1), /*failed=*/false, /*worker=*/0);
  ExpectReport(reports_[1], key(2), /*failed=*/true, /*worker=*/1);
  ExpectReport(reports_[2], key(4), /*failed=*/true, /*worker=*/1);
  ExpectReport(reports_[3], key(3), /*failed=*/true, /*worker=*/1);
}

TEST_F(ControlPlaneTest, DispatchSurvivesHeavyLossExactlyOnce) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.loss_prob = 0.7;
  auto plane = MakePlane(cc);
  plane->Dispatch(0, Run(Key(0)));
  sim_.Run();
  // Retransmission pushes the dispatch through; dedup keeps it single.
  EXPECT_EQ(Executed(), 1);
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
  plane->Dispatch(0, Run(Key(0)));
  sim_.Run();
  EXPECT_EQ(Executed(), 1);
  const FaultCounters& c = stats_;
  EXPECT_GT(c.msgs_duplicated, 0);
  EXPECT_GT(c.dup_suppressed, 0);
}

TEST_F(ControlPlaneTest, EpochFencingDiscardsStaleDispatch) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  plane->Dispatch(0, Run(Key(0)));
  plane->BumpEpoch();  // Crash before the message lands.
  sim_.Run();
  EXPECT_EQ(Executed(), 0);
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
  plane->set_completion_handler([&](const CompletionMsg&) { ++delivered; });
  CompletionMsg msg;
  msg.key = Key(3);
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
  plane->Dispatch(0, Run(Key(0)));
  sim_.Run();
  ASSERT_TRUE(plane->Delivered(0, Key(0)));
  plane->ForgetJob(0);
  EXPECT_FALSE(plane->Delivered(0, Key(0)));
}

TEST_F(ControlPlaneTest, ForgetWorkerKeepsOtherWorkersRecords) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  // The same monotask identity acked by both workers (e.g. a re-placement).
  plane->Dispatch(0, Run(Key(0)));
  plane->Dispatch(1, Run(Key(0)));
  sim_.Run();
  EXPECT_EQ(Executed(), 2);
  plane->ForgetWorker(0);
  EXPECT_FALSE(plane->Delivered(0, Key(0)));
  EXPECT_TRUE(plane->Delivered(1, Key(0)));
  // The rejoined worker re-accepts; the other still suppresses.
  plane->Dispatch(0, Run(Key(0)));
  plane->Dispatch(1, Run(Key(0)));
  sim_.Run();
  EXPECT_EQ(Executed(), 3);
}

TEST_F(ControlPlaneTest, ForgetJobKeepsOtherJobsRecords) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  MsgKey other = Key(0);
  other.job = 1;
  plane->Dispatch(0, Run(Key(0)));
  plane->Dispatch(0, Run(other));
  sim_.Run();
  EXPECT_EQ(Executed(), 2);
  plane->ForgetJob(0);
  EXPECT_FALSE(plane->Delivered(0, Key(0)));
  EXPECT_TRUE(plane->Delivered(0, other));
  plane->ForgetJob(7);  // A job the plane never saw is a no-op.
  EXPECT_TRUE(plane->Delivered(0, other));
}

TEST_F(ControlPlaneTest, KeyDifferingInOneFieldIsNotADuplicate) {
  ControlPlaneConfig cc;
  cc.enabled = true;
  auto plane = MakePlane(cc);
  plane->Dispatch(0, Run(Key(0)));
  sim_.Run();
  ASSERT_EQ(Executed(), 1);
  std::vector<MsgKey> variants(4, Key(0));
  variants[0].incarnation = 1;  // A full restart mints distinct keys.
  variants[1].generation = 1;
  variants[2].attempt = 1;
  variants[3].channel = 1;
  for (const MsgKey& key : variants) {
    EXPECT_FALSE(plane->Delivered(0, key));
    plane->Dispatch(0, Run(key));
  }
  sim_.Run();
  EXPECT_EQ(Executed(), 5);
  // The identical key is a duplicate and never runs again.
  plane->Dispatch(0, Run(Key(0)));
  sim_.Run();
  EXPECT_EQ(Executed(), 5);
  EXPECT_EQ(stats_.dup_suppressed, 1);
}

TEST_F(ControlPlaneTest, DedupFuzzMatchesReferenceSet) {
  // Random dispatches over a small key space, interleaved with worker and
  // job forgets, against a reference set of (worker, full key). Loss and
  // duplication exercise the retransmission path; each dispatch still
  // reaches the dedup table exactly once.
  using FullKey = std::tuple<WorkerId, JobId, int, MonotaskId, int, int, int>;
  const auto full = [](WorkerId w, const MsgKey& k) {
    return FullKey{w, k.job, k.incarnation, k.monotask, k.generation, k.attempt, k.channel};
  };
  ControlPlaneConfig cc;
  cc.enabled = true;
  cc.loss_prob = 0.3;
  cc.dup_prob = 0.3;
  auto plane = MakePlane(cc);
  Rng rng(2024);
  std::set<FullKey> reference;
  const auto random_key = [&rng] {
    MsgKey key;
    key.job = static_cast<JobId>(rng.UniformInt(uint64_t{3}));
    key.incarnation = static_cast<int>(rng.UniformInt(uint64_t{2}));
    key.monotask = static_cast<MonotaskId>(rng.UniformInt(uint64_t{4}));
    key.generation = static_cast<int>(rng.UniformInt(uint64_t{2}));
    key.attempt = static_cast<int>(rng.UniformInt(uint64_t{2}));
    key.channel = static_cast<int>(rng.UniformInt(uint64_t{2}));
    return key;
  };
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.UniformInt(uint64_t{20});
    const WorkerId w = static_cast<WorkerId>(rng.UniformInt(uint64_t{2}));
    if (op == 0) {
      plane->ForgetWorker(w);
      for (auto it = reference.begin(); it != reference.end();) {
        it = std::get<0>(*it) == w ? reference.erase(it) : std::next(it);
      }
    } else if (op == 1) {
      const JobId job = static_cast<JobId>(rng.UniformInt(uint64_t{3}));
      plane->ForgetJob(job);
      for (auto it = reference.begin(); it != reference.end();) {
        it = std::get<1>(*it) == job ? reference.erase(it) : std::next(it);
      }
    } else if (op < 10) {
      const MsgKey key = random_key();
      const bool fresh = reference.insert(full(w, key)).second;
      const int before = Executed();
      plane->Dispatch(w, Run(key));
      sim_.Run();
      ASSERT_EQ(Executed() - before, fresh ? 1 : 0) << "step " << step;
    } else {
      const MsgKey key = random_key();
      ASSERT_EQ(plane->Delivered(w, key), reference.count(full(w, key)) == 1)
          << "step " << step;
    }
  }
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
