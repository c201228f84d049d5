// Occupancy ledger of one worker: concurrency slots per resource, bytes of
// input currently being processed, cumulative completion counts, memory
// accounting, and the mirrors of the occupancy StepTrackers that baseline
// runtimes also write at container granularity. Worker routes every mutation
// through these methods so the memory-underflow CHECK sits in one place.
#ifndef SRC_EXEC_OCCUPANCY_H_
#define SRC_EXEC_OCCUPANCY_H_

#include <algorithm>
#include <cstdint>

#include "src/common/logging.h"
#include "src/dag/types.h"

namespace ursa {

// Mirrors of the Worker's occupancy StepTrackers; kCpuBusy/kCpuAlloc carry
// fractional cores because baseline runtimes charge container reservations.
enum class OccupancyKind { kCpuBusy = 0, kCpuAlloc = 1, kDiskBusy = 2 };
inline constexpr int kNumOccupancyKinds = 3;

class OccupancyLedger {
 public:
  OccupancyLedger() = default;
  OccupancyLedger(const OccupancyLedger&) = delete;
  OccupancyLedger& operator=(const OccupancyLedger&) = delete;

  // --- Concurrency slots (CPU cores, disk arms, network transfers). ---
  // Takes one slot of `r` if fewer than `limit` are in use.
  bool TryAcquireSlot(ResourceType r, int limit) {
    if (slots_[static_cast<size_t>(r)] >= limit) {
      return false;
    }
    ++slots_[static_cast<size_t>(r)];
    return true;
  }
  void ReleaseSlot(ResourceType r) { --slots_[static_cast<size_t>(r)]; }
  int slots_in_use(ResourceType r) const { return slots_[static_cast<size_t>(r)]; }

  // --- Bytes of input currently being processed, per resource. ---
  // Negative deltas clamp at zero (mirrors the historical underflow guard).
  void AddRunningBytes(ResourceType r, double delta) {
    double& bytes = running_bytes_[static_cast<size_t>(r)];
    bytes = std::max(bytes + delta, 0.0);
  }
  double running_bytes(ResourceType r) const { return running_bytes_[static_cast<size_t>(r)]; }

  // --- Cumulative completed-monotask counters (survive failures). ---
  void IncrementCompleted(ResourceType r) { ++completed_[static_cast<size_t>(r)]; }
  int64_t completed(ResourceType r) const { return completed_[static_cast<size_t>(r)]; }

  // --- Memory accounting (task granularity). ---
  // Reserves `bytes` unless the allocation would exceed
  // `capacity` (+1 byte of float slack). On success stores the new total in
  // `*new_allocated` for the caller's StepTracker update.
  bool TryAllocateMemory(double bytes, double capacity, double* new_allocated) {
    if (mem_allocated_ + bytes > capacity + 1.0) {
      return false;
    }
    mem_allocated_ += bytes;
    *new_allocated = mem_allocated_;
    return true;
  }
  // Returns the new allocated total.
  double ReleaseMemory(double bytes) {
    mem_allocated_ -= bytes;
    CHECK_GE(mem_allocated_, -1.0) << "memory release underflow";
    mem_allocated_ = std::max(mem_allocated_, 0.0);
    return mem_allocated_;
  }
  // Returns the new actual-use total (clamped at zero).
  double AddActualMemoryUse(double delta) {
    mem_actual_ = std::max(mem_actual_ + delta, 0.0);
    return mem_actual_;
  }
  double mem_allocated() const { return mem_allocated_; }

  // --- StepTracker mirrors (also written by baseline runtimes). ---
  // Returns the new value for the caller's tracker update.
  double AddOccupancy(OccupancyKind k, double delta) {
    occupancy_[static_cast<size_t>(k)] += delta;
    return occupancy_[static_cast<size_t>(k)];
  }
  double occupancy(OccupancyKind k) const { return occupancy_[static_cast<size_t>(k)]; }

  // Worker failure zeroes all live occupancy; cumulative completion counts
  // survive (they describe history, not machine state).
  void ResetForFailure() {
    for (size_t r = 0; r < kNumMonotaskResources; ++r) {
      slots_[r] = 0;
      running_bytes_[r] = 0.0;
    }
    for (double& v : occupancy_) {
      v = 0.0;
    }
    mem_allocated_ = 0.0;
    mem_actual_ = 0.0;
  }

 private:
  int slots_[kNumMonotaskResources] = {0, 0, 0};
  double running_bytes_[kNumMonotaskResources] = {0.0, 0.0, 0.0};
  int64_t completed_[kNumMonotaskResources] = {0, 0, 0};
  double mem_allocated_ = 0.0;
  double mem_actual_ = 0.0;
  double occupancy_[kNumOccupancyKinds] = {0.0, 0.0, 0.0};
};

}  // namespace ursa

#endif  // SRC_EXEC_OCCUPANCY_H_
