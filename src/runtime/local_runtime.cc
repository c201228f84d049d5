#include "src/runtime/local_runtime.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ursa {

namespace {

// Concurrent shuffle/copy lanes; the CPU pool has one thread per core.
constexpr int kShuffleLanes = 2;

}  // namespace

LocalRuntime::~LocalRuntime() = default;

int LocalRuntime::RegisterUdf(Udf udf) {
  udfs_.push_back(std::move(udf));
  return static_cast<int>(udfs_.size() - 1);
}

void LocalRuntime::SetInput(DataId data, std::vector<std::any> partitions) {
  for (size_t p = 0; p < partitions.size(); ++p) {
    store_[Key(data, static_cast<int>(p))] = std::move(partitions[p]);
  }
}

const std::any& LocalRuntime::Partition(DataId data, int partition) const {
  auto it = store_.find(Key(data, partition));
  CHECK(it != store_.end()) << "partition not materialized: data " << data << " partition "
                            << partition;
  return it->second;
}

int LocalRuntime::Partitions(DataId data) const {
  CHECK(plan_ != nullptr) << "Run() first";
  return plan_->dataset_partitions(data);
}

void LocalRuntime::Run(const OpGraph& graph) {
  const ExecutionPlan plan = ExecutionPlan::Build(graph, /*seed=*/1);
  plan_ = &plan;
  graph_ = &graph;
  monos_.assign(plan.monotasks().size(), MonoState{});
  tasks_.assign(plan.tasks().size(), TaskState{});
  stage_remaining_.assign(plan.stages().size(), 0);
  for (const StageSpec& stage : plan.stages()) {
    stage_remaining_[static_cast<size_t>(stage.id)] = stage.num_tasks;
  }
  for (const MonotaskSpec& mt : plan.monotasks()) {
    monos_[static_cast<size_t>(mt.id)].remaining_deps =
        static_cast<int>(mt.intask_deps.size());
    if (mt.type == ResourceType::kCpu) {
      for (OpId member : plan.cop(mt.cop).members) {
        CHECK_GE(graph.op(member).udf, 0)
            << "CPU op " << graph.op(member).name << " has no UDF registered";
      }
    }
  }
  for (const TaskSpec& task : plan.tasks()) {
    TaskState& ts = tasks_[static_cast<size_t>(task.id)];
    ts.remaining_async = static_cast<int>(task.async_parents.size());
    ts.remaining_sync = static_cast<int>(task.sync_parent_stages.size());
    ts.remaining_monotasks = static_cast<int>(task.monotasks.size());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = false;
    outstanding_ = static_cast<int>(plan.monotasks().size());
    for (const TaskSpec& task : plan.tasks()) {
      const TaskState& ts = tasks_[static_cast<size_t>(task.id)];
      if (ts.remaining_async == 0 && ts.remaining_sync == 0) {
        for (MonotaskId m : task.monotasks) {
          if (monos_[static_cast<size_t>(m)].remaining_deps == 0) {
            queues_[static_cast<size_t>(plan.monotask(m).type)].push_back(m);
          }
        }
      }
    }
  }

  // Spin up the per-resource lanes.
  const unsigned cpu_threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cpu_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(ResourceType::kCpu); });
  }
  for (int i = 0; i < kShuffleLanes; ++i) {
    threads_.emplace_back([this] { WorkerLoop(ResourceType::kNetwork); });
  }
  threads_.emplace_back([this] { WorkerLoop(ResourceType::kDisk); });
  cv_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  plan_owned_ = std::make_unique<ExecutionPlan>(plan);
  plan_ = plan_owned_.get();
  graph_ = nullptr;
}

void LocalRuntime::WorkerLoop(ResourceType lane) {
  const size_t q = static_cast<size_t>(lane);
  while (true) {
    MonotaskId id = kInvalidId;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, q] { return shutdown_ || !queues_[q].empty(); });
      if (shutdown_ && queues_[q].empty()) {
        return;
      }
      id = queues_[q].front();
      queues_[q].pop_front();
    }
    ExecuteMonotask(id);
    OnMonotaskDone(id);
  }
}

void LocalRuntime::ExecuteMonotask(MonotaskId id) {
  const MonotaskSpec& mt = plan_->monotask(id);
  const CollapsedOp& cop = plan_->cop(mt.cop);
  const OpGraph& graph = *graph_;
  switch (mt.type) {
    case ResourceType::kCpu: {
      // Run each member op's UDF in chain order; intermediates land in the
      // store like any other partition.
      for (OpId member : cop.members) {
        const OpDef& op = graph.op(member);
        UdfInputs inputs;
        {
          std::lock_guard<std::mutex> lock(mu_);
          for (DataId d : op.reads) {
            auto it = store_.find(Key(d, mt.index));
            CHECK(it != store_.end())
                << "op " << op.name << " missing input partition of data " << d;
            inputs.push_back(&it->second);
          }
        }
        std::vector<std::any> outputs = udfs_[static_cast<size_t>(op.udf)](inputs);
        CHECK_EQ(outputs.size(), op.creates.size())
            << "op " << op.name << " returned wrong output count";
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < outputs.size(); ++i) {
          store_[Key(op.creates[i], mt.index)] = std::move(outputs[i]);
        }
      }
      break;
    }
    case ResourceType::kNetwork: {
      CHECK_EQ(cop.reads.size(), cop.creates.size())
          << "network op " << cop.name << " must map reads to creates 1:1";
      for (size_t r = 0; r < cop.reads.size(); ++r) {
        const DataId src = cop.reads[r];
        const DataId dst = cop.creates[r];
        std::any output;
        if (cop.read_modes[r] == ReadMode::kGatherSlices) {
          // Collect bucket mt.index of every upstream partition.
          std::vector<std::any> slices;
          const int partitions = plan_->dataset_partitions(src);
          std::lock_guard<std::mutex> lock(mu_);
          for (int p = 0; p < partitions; ++p) {
            auto it = store_.find(Key(src, p));
            CHECK(it != store_.end());
            const auto* buckets = std::any_cast<std::vector<std::any>>(&it->second);
            CHECK(buckets != nullptr)
                << "shuffle input of " << cop.name
                << " must be std::vector<std::any> buckets (one per output partition)";
            CHECK_LT(static_cast<size_t>(mt.index), buckets->size());
            slices.push_back((*buckets)[static_cast<size_t>(mt.index)]);
          }
          output = std::move(slices);
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = store_.find(Key(src, mt.index));
          CHECK(it != store_.end());
          output = it->second;  // Share / copy the partition.
        }
        std::lock_guard<std::mutex> lock(mu_);
        store_[Key(dst, mt.index)] = std::move(output);
      }
      break;
    }
    case ResourceType::kDisk: {
      // Pass-through persistence lane: copy read partitions to any created
      // datasets (a real deployment would serialize to files here).
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t r = 0; r < cop.reads.size() && r < cop.creates.size(); ++r) {
        auto it = store_.find(Key(cop.reads[r], mt.index));
        CHECK(it != store_.end());
        store_[Key(cop.creates[r], mt.index)] = it->second;
      }
      break;
    }
  }
}

void LocalRuntime::OnMonotaskDone(MonotaskId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const MonotaskSpec& mt = plan_->monotask(id);
  ++executed_[static_cast<size_t>(mt.type)];
  for (MonotaskId dep : mt.intask_dependents) {
    if (--monos_[static_cast<size_t>(dep)].remaining_deps == 0) {
      Enqueue(dep);
    }
  }
  TaskState& ts = tasks_[static_cast<size_t>(mt.task)];
  if (--ts.remaining_monotasks == 0) {
    const TaskSpec& task = plan_->task(mt.task);
    for (TaskId child : task.async_children) {
      TaskState& cs = tasks_[static_cast<size_t>(child)];
      if (--cs.remaining_async == 0 && cs.remaining_sync == 0) {
        MarkTaskReady(child);
      }
    }
    if (--stage_remaining_[static_cast<size_t>(task.stage)] == 0) {
      for (StageId cs_id : plan_->stage(task.stage).sync_child_stages) {
        for (TaskId child : plan_->stage(cs_id).tasks) {
          TaskState& cs = tasks_[static_cast<size_t>(child)];
          if (--cs.remaining_sync == 0 && cs.remaining_async == 0) {
            MarkTaskReady(child);
          }
        }
      }
    }
  }
  --outstanding_;
  cv_.notify_all();
}

void LocalRuntime::MarkTaskReady(TaskId id) {
  for (MonotaskId m : plan_->task(id).monotasks) {
    if (monos_[static_cast<size_t>(m)].remaining_deps == 0) {
      Enqueue(m);
    }
  }
}

void LocalRuntime::Enqueue(MonotaskId id) {
  queues_[static_cast<size_t>(plan_->monotask(id).type)].push_back(id);
  cv_.notify_all();
}

}  // namespace ursa
