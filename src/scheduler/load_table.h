// Interning of worker loads for the placement index (DESIGN.md section 12).
//
// The bucketed scan groups workers whose cached loads are bit-identical, and
// the placement overlay groups the workers a pass has modified the same way.
// Both look a load up by its exact bits: a WorkerLoad is twelve doubles, so
// it is hashed and compared as twelve 64-bit words, inlined, and ordered the
// way memcmp orders its bytes.
#ifndef SRC_SCHEDULER_LOAD_TABLE_H_
#define SRC_SCHEDULER_LOAD_TABLE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/scheduler/placement_policy.h"

namespace ursa {

inline constexpr int kLoadWords = static_cast<int>(sizeof(WorkerLoad) / sizeof(uint64_t));
static_assert(sizeof(WorkerLoad) == kLoadWords * sizeof(uint64_t),
              "WorkerLoad must be whole 64-bit words with no padding");

// Word `i` of the load's object representation, in host byte order.
inline uint64_t LoadWord(const WorkerLoad& load, int i) {
  uint64_t word;
  std::memcpy(&word, reinterpret_cast<const unsigned char*>(&load) + i * sizeof(uint64_t),
              sizeof(word));
  return word;
}

// Bitwise equality, as memcmp decides it: 0.0 and -0.0 differ, and a NaN
// equals a NaN with the same bits. No early exit, so it vectorizes.
inline bool SameLoad(const WorkerLoad& a, const WorkerLoad& b) {
  uint64_t diff = 0;
  for (int i = 0; i < kLoadWords; ++i) {
    diff |= LoadWord(a, i) ^ LoadWord(b, i);
  }
  return diff == 0;
}

// The sign of memcmp(&a, &b, sizeof(WorkerLoad)). The first differing word
// decides; memcmp compares its bytes in memory order, which on a
// little-endian host means the byte-swapped word.
inline int CompareLoads(const WorkerLoad& a, const WorkerLoad& b) {
  for (int i = 0; i < kLoadWords; ++i) {
    uint64_t x = LoadWord(a, i);
    uint64_t y = LoadWord(b, i);
    if (x != y) {
      if constexpr (std::endian::native == std::endian::little) {
        x = __builtin_bswap64(x);
        y = __builtin_bswap64(y);
      }
      return x < y ? -1 : 1;
    }
  }
  return 0;
}

// Hash of the load's words: independent multiplies by distinct odd
// constants, summed, then mixed so that LoadTable can use the top bits.
inline uint64_t HashLoad(const WorkerLoad& load) {
  uint64_t h = 0;
  uint64_t k = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kLoadWords; ++i) {
    h += LoadWord(load, i) * k;
    k += 0x6a09e667f3bcc90aull;  // Stays odd.
  }
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 29);
}

// A map from a load to a small integer id. Open addressing with linear
// probing over a power-of-two slot array kept at most half full; an erase
// shifts the rest of its probe run back, so there are no tombstones. Ids
// are dense from 0, and an erased id is handed out again by a later Intern.
// Nothing here depends on addresses or iteration order of a hash container,
// so ids are a deterministic function of the call sequence.
class LoadTable {
 public:
  // The id of `load`, interned under a new id when absent; `*added` tells
  // which.
  int32_t Intern(const WorkerLoad& load, bool* added);
  // Removes an interned id.
  void Erase(int32_t id);
  // Removes every load, in O(ids handed out since the last Clear).
  void Clear();

  const WorkerLoad& load(int32_t id) const { return loads_[static_cast<size_t>(id)]; }
  // Every id is below id_limit(); erased ones among them are free.
  int32_t id_limit() const { return static_cast<int32_t>(loads_.size()); }
  int32_t size() const { return id_limit() - static_cast<int32_t>(free_ids_.size()); }

 private:
  static constexpr uint32_t kNoSlot = ~0u;
  size_t Home(uint64_t hash) const { return static_cast<size_t>(hash >> shift_); }
  // Doubles the slot array (16 slots at first) and re-inserts every id.
  void Grow();

  std::vector<int32_t> slots_;     // Id per slot; -1 = empty.
  int shift_ = 64;                 // 64 - log2(slots_.size()).
  std::vector<WorkerLoad> loads_;  // By id.
  std::vector<uint64_t> hashes_;   // By id.
  std::vector<uint32_t> slot_of_;  // By id; kNoSlot once erased.
  std::vector<int32_t> free_ids_;  // Erased ids, reused last-in first-out.
};

}  // namespace ursa

#endif  // SRC_SCHEDULER_LOAD_TABLE_H_
