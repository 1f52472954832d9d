#pragma once
// SlabPool: the one allocator behind chare element objects and the nodes and
// buckets of each PE's `elems` map (DESIGN.md §12).
//
// Over-decomposition puts millions of small objects of a few sizes on the
// host, and malloc rounds each one up and adds a header: a 128-byte element
// is a 144-byte chunk, a 40-byte map node a 48-byte one.  The pool carves
// exact-size slots out of 64 KiB slabs, with one bump region and one LIFO
// free list per 8-byte size class up to 1 KiB, so migration, destroy, insert
// and restore recycle slots of their class.  Larger requests (bucket arrays
// of PEs that host hundreds of elements) pass through to operator new and
// are counted all the same.  Slabs are 16-byte aligned and a slot's offset
// is a multiple of its size, so a type whose size is a multiple of 16 gets a
// 16-byte-aligned slot.
//
// Slabs are kept until thread exit, which makes the steady state
// allocation-free.  Like sim::detail::BlockCache the pool is thread-local
// (the emulator is sequential) and outlives every element.  Under
// AddressSanitizer free slots and uncarved slab space are poisoned, so a
// touch of a destroyed element is still reported although its memory never
// goes back to malloc.

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define CHARM_SLAB_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHARM_SLAB_POOL_ASAN 1
#endif
#endif
#ifdef CHARM_SLAB_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace charm {

class SlabPool {
 public:
  static constexpr std::size_t kGrain = 8;
  static constexpr std::size_t kMaxSlotBytes = 1024;
  static constexpr std::size_t kSlabBytes = std::size_t{64} << 10;

  static void* allocate(std::size_t bytes) {
    SlabPool& pool = instance();
    if (bytes > kMaxSlotBytes) {
      void* p = ::operator new(bytes);
      pool.live_ += bytes;
      return p;
    }
    const std::size_t cls = class_of(bytes);
    const std::size_t slot = (cls + 1) * kGrain;
    void* p = pool.free_[cls];
    if (p != nullptr) {
      unpoison(p, slot);
      pool.free_[cls] = *static_cast<void**>(p);
    } else {
      p = pool.carve(cls, slot);
    }
    pool.live_ += slot;
    return p;
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    SlabPool& pool = instance();
    if (bytes > kMaxSlotBytes) {
      pool.live_ -= bytes;
      ::operator delete(p);
      return;
    }
    const std::size_t cls = class_of(bytes);
    const std::size_t slot = (cls + 1) * kGrain;
    *static_cast<void**>(p) = pool.free_[cls];
    pool.free_[cls] = p;
    poison(p, slot);
    pool.live_ -= slot;
  }

  /// Bytes handed out and not yet returned: slot sizes for pooled requests,
  /// the request itself for pass-through ones.
  static std::size_t live_bytes() { return instance().live_; }

 private:
  static constexpr std::size_t kClasses = kMaxSlotBytes / kGrain;

  static std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGrain;
  }

  static SlabPool& instance() {
    thread_local SlabPool pool;
    return pool;
  }

  /// A fresh slot from class `cls`'s bump region, opening a new slab when
  /// the region cannot hold another slot.
  void* carve(std::size_t cls, std::size_t slot) {
    if (static_cast<std::size_t>(end_[cls] - bump_[cls]) < slot) {
      // new char[] is aligned for any fundamental type of its size.
      slabs_.emplace_back(new char[kSlabBytes]);
      bump_[cls] = slabs_.back().get();
      end_[cls] = bump_[cls] + kSlabBytes;
      poison(bump_[cls], kSlabBytes);
    }
    void* p = bump_[cls];
    bump_[cls] += slot;
    unpoison(p, slot);
    return p;
  }

  static void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef CHARM_SLAB_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef CHARM_SLAB_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  void* free_[kClasses] = {};
  char* bump_[kClasses] = {};
  char* end_[kClasses] = {};
  std::size_t live_ = 0;
  std::vector<std::unique_ptr<char[]>> slabs_;
};

/// Stateless std allocator over SlabPool, for node-based containers whose
/// nodes share the elements' slabs.
template <class T>
struct SlabAllocator {
  using value_type = T;
  static_assert(alignof(T) <= 16, "SlabPool slots are at most 16-byte aligned");

  SlabAllocator() = default;
  template <class U>
  SlabAllocator(const SlabAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) { return static_cast<T*>(SlabPool::allocate(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { SlabPool::deallocate(p, n * sizeof(T)); }

  friend bool operator==(const SlabAllocator&, const SlabAllocator&) { return true; }
};

}  // namespace charm
