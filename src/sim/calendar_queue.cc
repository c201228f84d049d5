#include "src/sim/calendar_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace ursa {
namespace {

// Bucket-count bounds and the target mean occupancy that triggers regrowth.
constexpr size_t kMinBuckets = 64;
constexpr size_t kMaxBuckets = size_t{1} << 17;
constexpr size_t kMaxFill = 8;
constexpr double kMinWidth = 1e-9;

// Descending (when, id): the drained bucket pops from the back.
bool NodeAfter(double a_when, EventId a_id, double b_when, EventId b_id) {
  if (a_when != b_when) {
    return a_when > b_when;
  }
  return a_id > b_id;
}

}  // namespace

EventId CalendarEventQueue::Push(double when, Callback cb) {
  const EventId id = next_id_++;
  if (buckets_.empty()) {
    // First event seeds the year; width stays coarse until the first
    // population-based Rebuild().
    buckets_.resize(kMinBuckets);
    year_start_ = when;
    width_ = 1.0;
    cur_ = 0;
    cur_sorted_ = false;
  }
  Node* node = pool_.New(Node{when, id, false, std::move(cb)});
  index_.emplace(id, node);
  ++live_;
  Place(node);
  if (live_ > buckets_.size() * kMaxFill && buckets_.size() < kMaxBuckets) {
    Rebuild();
  }
  return id;
}

void CalendarEventQueue::Place(Node* node) {
  const double pos = (node->when - year_start_) / width_;
  if (pos >= static_cast<double>(buckets_.size())) {
    overflow_.push_back(node);
    return;
  }
  size_t idx = pos < 0.0 ? cur_ : std::max(cur_, static_cast<size_t>(pos));
  if (idx >= buckets_.size()) {
    idx = buckets_.size() - 1;
  }
  std::vector<Node*>& bucket = buckets_[idx];
  if (idx == cur_ && cur_sorted_) {
    // Keep the drained bucket's descending (when, id) order intact.
    auto it = std::lower_bound(
        bucket.begin(), bucket.end(), node, [](const Node* a, const Node* b) {
          return NodeAfter(a->when, a->id, b->when, b->id);
        });
    bucket.insert(it, node);
  } else {
    bucket.push_back(node);
  }
}

bool CalendarEventQueue::Cancel(EventId id) {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return false;
  }
  Node* node = it->second;
  index_.erase(it);
  node->cancelled = true;
  node->cb = Callback();  // Release captured resources eagerly.
  CHECK_GT(live_, 0u);
  --live_;
  ++cancelled_count_;
  if (cancelled_count_ > live_) {
    CompactAll();
  }
  return true;
}

void CalendarEventQueue::CompactAll() {
  for (std::vector<Node*>& bucket : buckets_) {
    size_t out = 0;
    for (Node* node : bucket) {
      if (node->cancelled) {
        pool_.Delete(node);
      } else {
        bucket[out++] = node;
      }
    }
    bucket.resize(out);
  }
  size_t out = 0;
  for (Node* node : overflow_) {
    if (node->cancelled) {
      pool_.Delete(node);
    } else {
      overflow_[out++] = node;
    }
  }
  overflow_.resize(out);
  cancelled_count_ = 0;
}

bool CalendarEventQueue::Empty() const {
  return live_ == 0;
}

double CalendarEventQueue::NextTime() const {
  if (live_ == 0) {
    return std::numeric_limits<double>::infinity();
  }
  Settle();
  return buckets_[cur_].back()->when;
}

void CalendarEventQueue::Settle() const {
  for (;;) {
    while (cur_ < buckets_.size()) {
      std::vector<Node*>& bucket = buckets_[cur_];
      if (!cur_sorted_) {
        std::sort(bucket.begin(), bucket.end(), [](const Node* a, const Node* b) {
          return NodeAfter(a->when, a->id, b->when, b->id);
        });
        cur_sorted_ = true;
      }
      while (!bucket.empty() && bucket.back()->cancelled) {
        pool_.Delete(bucket.back());
        bucket.pop_back();
        CHECK_GT(cancelled_count_, 0u);
        --cancelled_count_;
      }
      if (!bucket.empty()) {
        return;
      }
      ++cur_;
      cur_sorted_ = false;
    }
    // Year drained; every remaining event is in overflow. live_ > 0
    // guarantees Rebuild() repopulates at least one bucket.
    Rebuild();
  }
}

void CalendarEventQueue::Rebuild() const {
  std::vector<Node*> nodes;
  nodes.reserve(live_);
  double min_when = std::numeric_limits<double>::infinity();
  double max_when = -std::numeric_limits<double>::infinity();
  buckets_.push_back(std::move(overflow_));  // Gather overflow like one more bucket.
  overflow_.clear();
  for (std::vector<Node*>& bucket : buckets_) {
    for (Node* node : bucket) {
      if (node->cancelled) {
        pool_.Delete(node);
        CHECK_GT(cancelled_count_, 0u);
        --cancelled_count_;
        continue;
      }
      min_when = std::min(min_when, node->when);
      max_when = std::max(max_when, node->when);
      nodes.push_back(node);
    }
    bucket.clear();
  }
  CHECK_EQ(nodes.size(), live_);

  size_t nbuckets = kMinBuckets;
  while (nbuckets < nodes.size() && nbuckets < kMaxBuckets) {
    nbuckets *= 2;
  }
  const double span = max_when - min_when;
  double width = 1.0;
  if (!nodes.empty() && span > 0.0) {
    width = std::max(span / static_cast<double>(nbuckets), kMinWidth);
  }
  buckets_.assign(nbuckets, {});
  year_start_ = nodes.empty() ? 0.0 : min_when;
  width_ = width;
  cur_ = 0;
  cur_sorted_ = false;
  for (Node* node : nodes) {
    const double pos = (node->when - year_start_) / width_;
    if (pos >= static_cast<double>(nbuckets)) {
      overflow_.push_back(node);
      continue;
    }
    size_t idx = pos < 0.0 ? 0 : static_cast<size_t>(pos);
    if (idx >= nbuckets) {
      idx = nbuckets - 1;
    }
    buckets_[idx].push_back(node);
  }
}

EventQueue::Fired CalendarEventQueue::Pop() {
  CHECK_GT(live_, 0u);
  Settle();
  std::vector<Node*>& bucket = buckets_[cur_];
  Node* node = bucket.back();
  bucket.pop_back();
  Fired fired{node->when, node->id, std::move(node->cb)};
  index_.erase(node->id);
  --live_;
  pool_.Delete(node);
  return fired;
}

size_t CalendarEventQueue::PendingCount() const {
  CHECK_EQ(live_, index_.size());
  return live_;
}

size_t CalendarEventQueue::StoredCount() const {
  return live_ + cancelled_count_;
}

}  // namespace ursa
