// Block-based object pools for hot-path allocations (DESIGN.md section 12).
//
// The simulator core allocates and frees small, identically sized objects at
// very high rates: calendar-queue nodes, in-flight monotask records, map
// nodes. General-purpose malloc handles this fine at paper scale but becomes
// a visible fraction of the tick at 10k workers. These pools trade a little
// slack memory for O(1) allocate/free with no global-heap traffic after
// warm-up.
//
// Determinism: pools never consult addresses for ordering, never shrink, and
// recycle slots strictly LIFO, so allocation patterns are a pure function of
// the simulation's own event order.
//
// Ownership: each pool is owned by exactly one component (a worker, an event
// queue) on the simulator thread.
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ursa {

// Fixed-type object pool: placement-new into recycled slots backed by
// geometrically growing blocks.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(size_t first_block = 64) : next_block_(first_block) {}
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    if (free_.empty()) {
      Grow();
    }
    void* slot = free_.back();
    free_.pop_back();
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  void Delete(T* obj) {
    obj->~T();
    free_.push_back(obj);
  }

  // Slots currently live (allocated minus freed); for tests and footprint
  // accounting.
  size_t LiveCount() const { return capacity_ - free_.size(); }
  size_t Capacity() const { return capacity_; }

 private:
  struct alignas(alignof(T)) Slot {
    std::byte bytes[sizeof(T)];
  };

  void Grow() {
    const size_t n = next_block_;
    next_block_ *= 2;
    blocks_.push_back(std::make_unique<Slot[]>(n));
    Slot* base = blocks_.back().get();
    free_.reserve(free_.size() + n);
    // Hand slots out from the front of the block: push in reverse so the
    // LIFO free list yields ascending addresses on first use.
    for (size_t i = n; i > 0; --i) {
      free_.push_back(&base[i - 1]);
    }
    capacity_ += n;
  }

  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::vector<void*> free_;
  size_t capacity_ = 0;
  size_t next_block_;
};

// Type-erased free-list resource for node-based standard containers. Single
// allocations are pooled per (size, alignment) class; array allocations fall
// through to the global heap (node containers never make them).
class PoolResource {
 public:
  PoolResource() = default;
  PoolResource(const PoolResource&) = delete;
  PoolResource& operator=(const PoolResource&) = delete;

  ~PoolResource() {
    for (auto& size_class : classes_) {
      for (void* block : size_class.blocks) {
        ::operator delete(block, std::align_val_t(size_class.align));
      }
    }
  }

  void* Allocate(size_t bytes, size_t align) {
    SizeClass& size_class = ClassFor(bytes, align);
    if (size_class.free.empty()) {
      GrowClass(size_class);
    }
    void* slot = size_class.free.back();
    size_class.free.pop_back();
    return slot;
  }

  void Deallocate(void* slot, size_t bytes, size_t align) {
    ClassFor(bytes, align).free.push_back(slot);
  }

 private:
  struct SizeClass {
    size_t bytes = 0;
    size_t align = 0;
    size_t next_block = 64;
    std::vector<void*> blocks;
    std::vector<void*> free;
  };

  SizeClass& ClassFor(size_t bytes, size_t align) {
    // A handful of distinct node types per container owner; linear scan wins.
    for (SizeClass& size_class : classes_) {
      if (size_class.bytes == bytes && size_class.align == align) {
        return size_class;
      }
    }
    classes_.push_back(SizeClass{bytes, align, 64, {}, {}});
    return classes_.back();
  }

  static void GrowClass(SizeClass& size_class) {
    const size_t n = size_class.next_block;
    size_class.next_block *= 2;
    const size_t stride =
        (size_class.bytes + size_class.align - 1) / size_class.align * size_class.align;
    auto* base = static_cast<std::byte*>(
        ::operator new(stride * n, std::align_val_t(size_class.align)));
    // Record the raw block for ~PoolResource; sized-delete is not required
    // because we free via the unsized aligned operator delete.
    size_class.blocks.push_back(base);
    size_class.free.reserve(size_class.free.size() + n);
    for (size_t i = n; i > 0; --i) {
      size_class.free.push_back(base + (i - 1) * stride);
    }
  }

  std::vector<SizeClass> classes_;
};

// Minimal std-allocator adapter over PoolResource. Containers rebind this to
// their node type; every node of a given container then comes from the
// owner's pool. The resource must outlive every container using it.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(PoolResource* resource) : resource_(resource) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : resource_(other.resource()) {}  // NOLINT

  T* allocate(size_t n) {
    if (n == 1) {
      return static_cast<T*>(resource_->Allocate(sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* ptr, size_t n) {
    if (n == 1) {
      resource_->Deallocate(ptr, sizeof(T), alignof(T));
      return;
    }
    ::operator delete(ptr);
  }

  PoolResource* resource() const { return resource_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return resource_ == other.resource();
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& other) const {
    return resource_ != other.resource();
  }

 private:
  PoolResource* resource_;
};

}  // namespace ursa

#endif  // SRC_COMMON_ARENA_H_
