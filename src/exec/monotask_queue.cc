#include "src/exec/monotask_queue.h"

#include <utility>

#include "src/common/logging.h"

namespace ursa {

void MonotaskQueue::Push(RunnableMonotask mt) {
  uint64_t seq;
  if (!free_slots_.empty()) {
    seq = free_slots_.back();
    free_slots_.pop_back();
    slots_[seq] = std::move(mt);
  } else {
    seq = next_seq_++;
    slots_.push_back(std::move(mt));
  }
  const RunnableMonotask& stored = slots_[seq];
  queued_bytes_ += stored.input_bytes;
  order_.insert(Entry{stored.job_priority, stored.intra_key, seq});
}

RunnableMonotask MonotaskQueue::Pop() {
  CHECK(!order_.empty());
  const Entry entry = *order_.begin();
  order_.erase(order_.begin());
  RunnableMonotask mt = std::move(slots_[entry.seq]);
  free_slots_.push_back(entry.seq);
  queued_bytes_ -= mt.input_bytes;
  return mt;
}

size_t MonotaskQueue::RemoveCancelled() {
  size_t removed = 0;
  for (auto it = order_.begin(); it != order_.end();) {
    RunnableMonotask& mt = slots_[it->seq];
    if (mt.cancel != nullptr && mt.cancel->cancelled) {
      queued_bytes_ -= mt.input_bytes;
      free_slots_.push_back(it->seq);
      mt = RunnableMonotask{};  // Drop callbacks and pull lists eagerly.
      it = order_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

void MonotaskQueue::Reprioritize(const std::function<double(JobId)>& priority_of) {
  std::set<Entry> rebuilt;
  for (const Entry& entry : order_) {
    RunnableMonotask& mt = slots_[entry.seq];
    mt.job_priority = priority_of(mt.job);
    rebuilt.insert(Entry{mt.job_priority, mt.intra_key, entry.seq});
  }
  order_ = std::move(rebuilt);
}

}  // namespace ursa
