#include "src/scheduler/load_table.h"

#include "src/common/logging.h"

namespace ursa {

int32_t LoadTable::Intern(const WorkerLoad& load, bool* added) {
  if (2 * static_cast<size_t>(size() + 1) > slots_.size()) {
    Grow();
  }
  const uint64_t hash = HashLoad(load);
  const size_t mask = slots_.size() - 1;
  size_t slot = Home(hash);
  for (;; slot = (slot + 1) & mask) {
    const int32_t id = slots_[slot];
    if (id < 0) {
      break;
    }
    if (hashes_[static_cast<size_t>(id)] == hash &&
        SameLoad(load, loads_[static_cast<size_t>(id)])) {
      *added = false;
      return id;
    }
  }
  int32_t id = id_limit();
  if (free_ids_.empty()) {
    loads_.push_back(load);
    hashes_.push_back(hash);
    slot_of_.push_back(static_cast<uint32_t>(slot));
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
    loads_[static_cast<size_t>(id)] = load;
    hashes_[static_cast<size_t>(id)] = hash;
    slot_of_[static_cast<size_t>(id)] = static_cast<uint32_t>(slot);
  }
  slots_[slot] = id;
  *added = true;
  return id;
}

void LoadTable::Erase(int32_t id) {
  size_t hole = slot_of_[static_cast<size_t>(id)];
  CHECK(hole != kNoSlot) << "load id " << id << " erased twice";
  slot_of_[static_cast<size_t>(id)] = kNoSlot;
  free_ids_.push_back(id);
  // Backward shift: pull later members of the probe run into the hole
  // unless their home slot lies cyclically in (hole, slot].
  const size_t mask = slots_.size() - 1;
  for (size_t slot = (hole + 1) & mask;; slot = (slot + 1) & mask) {
    const int32_t other = slots_[slot];
    if (other < 0) {
      break;
    }
    const size_t home = Home(hashes_[static_cast<size_t>(other)]);
    const bool stays = hole <= slot ? (hole < home && home <= slot)
                                    : (hole < home || home <= slot);
    if (stays) {
      continue;
    }
    slots_[hole] = other;
    slot_of_[static_cast<size_t>(other)] = static_cast<uint32_t>(hole);
    hole = slot;
  }
  slots_[hole] = -1;
}

void LoadTable::Clear() {
  for (const uint32_t slot : slot_of_) {
    if (slot != kNoSlot) {
      slots_[slot] = -1;
    }
  }
  loads_.clear();
  hashes_.clear();
  slot_of_.clear();
  free_ids_.clear();
}

void LoadTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(capacity, -1);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (size_t id = 0; id < slot_of_.size(); ++id) {
    if (slot_of_[id] == kNoSlot) {
      continue;
    }
    size_t slot = Home(hashes_[id]);
    while (slots_[slot] >= 0) {
      slot = (slot + 1) & mask;
    }
    slots_[slot] = static_cast<int32_t>(id);
    slot_of_[id] = static_cast<uint32_t>(slot);
  }
}

}  // namespace ursa
