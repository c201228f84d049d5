// Block-based node pool for hot-path allocations (DESIGN.md section 12).
//
// The simulator core allocates and frees in-flight monotask records at very
// high rates. General-purpose malloc handles this fine at paper scale but
// becomes a visible fraction of the tick at 10k workers. The pool trades a
// little slack memory for O(1) allocate/free with no global-heap traffic
// after warm-up.
//
// Determinism: the pool never consults addresses for ordering, never
// shrinks, and recycles slots strictly LIFO, so allocation patterns are a
// pure function of the simulation's own event order.
//
// Ownership: each pool is owned by exactly one component (a worker) on the
// simulator thread.
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <new>
#include <vector>

namespace ursa {

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
