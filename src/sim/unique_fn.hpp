#pragma once
// UniqueFn: a move-only replacement for std::function<void()> on the
// messaging hot path.
//
// Why not std::function?  Every point-send handler the runtime creates closes
// over an Envelope (80 bytes, with a payload of up to 32 bytes inline; with
// the destination PE the point-send closure is 88 bytes).  std::function's
// small-buffer optimization tops out at two pointers, so each such closure
// costs one heap allocation at send time and one free at delivery — per
// message.  UniqueFn removes both:
//
//   * Inline storage of kInlineBytes (88): the runtime's message closures
//     (point sends, home forwards, location-cache teach and most other
//     control messages), timer thunks and driver lambdas live inside the
//     Event's arena slot itself, so such a message owns no other storage.
//     sizeof(UniqueFn) is 96, which keeps sim::Event at 128 bytes.
//   * A larger closure of up to 128 bytes (a reduction completion or tree
//     partial) is placed in a block drawn from a thread-local free list, and
//     the block pointer occupies the first 8 bytes of the inline buffer.
//     Blocks are recycled when the closure is destroyed, so the steady state
//     performs zero heap allocations, and moving a boxed closure copies a
//     pointer.  Closures larger still are rare and get plain operator new:
//     the runtime's typed same-PE send boxes nothing, because an argument
//     too large for the inline buffer takes the packed path and its bytes
//     recycle through charm::PayloadPool instead.
//   * Move-only: closures may own their payload (an Envelope moved straight
//     into the capture) instead of sharing it through a shared_ptr box.
//
// The block cache is thread-local because the emulator is sequential; it
// survives Machine/Runtime teardown, so closures destroyed late (pending
// events in a stopped machine) can always return their block.

#include <cstddef>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sim {

namespace detail {

/// Recycling allocator for closure blocks of up to kBlockBytes: one LIFO
/// free list with bounded retention.  Larger closures go to operator new.
class BlockCache {
 public:
  /// The one block size.  The closures that outgrow the inline buffer in
  /// steady use (reduction completions, tree partials) fit it.
  static constexpr std::size_t kBlockBytes = 128;
  /// Retention bound.  A burst handler can put a few thousand closures in
  /// flight before the first one is destroyed, and the next burst should be
  /// served entirely from the cache (worst case pinned: 4096 * 128 B =
  /// 512 KiB).
  static constexpr std::size_t kMaxFreeBlocks = 4096;

  static void* acquire(std::size_t bytes) {
    if (bytes > kBlockBytes) return ::operator new(bytes);
    auto& list = instance().free_;
    if (list.empty()) return ::operator new(kBlockBytes);
    void* p = list.back().release();
    list.pop_back();
    return p;
  }

  static void release(void* p, std::size_t bytes) {
    auto& list = instance().free_;
    if (bytes > kBlockBytes || list.size() >= kMaxFreeBlocks) {
      ::operator delete(p);
      return;
    }
    list.emplace_back(p);
  }

  /// Blocks currently cached (test/diagnostic hook).
  static std::size_t cached_blocks() { return instance().free_.size(); }

 private:
  struct OpDelete {
    void operator()(void* p) const { ::operator delete(p); }
  };
  using Block = std::unique_ptr<void, OpDelete>;

  static BlockCache& instance() {
    thread_local BlockCache cache;
    return cache;
  }

  std::vector<Block> free_;
};

}  // namespace detail

class UniqueFn {
 public:
  /// Closures up to this size are stored inline in the UniqueFn itself.
  static constexpr std::size_t kInlineBytes = 88;

  /// True when a closure of type Fn is stored inline (no block is drawn).
  template <class Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineBytes &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  UniqueFn() = default;
  UniqueFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, UniqueFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      void* block = detail::BlockCache::acquire(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      std::memcpy(storage_, &block, sizeof block);
      ops_ = &boxed_ops<Fn>;
    }
  }

  UniqueFn(UniqueFn&& other) noexcept { steal(other); }

  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  UniqueFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  ~UniqueFn() { reset(); }

  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the held closure (if any), returning boxed storage to the
  /// block cache; the wrapper becomes empty.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

  /// True when the held closure lives in the inline buffer (test hook).
  bool is_inline() const { return ops_ != nullptr && !ops_->boxed; }

 private:
  // Every hook takes the inline buffer.  The boxed hooks read the block
  // pointer out of its first 8 bytes, so moving and destroying need no
  // branch on where the closure lives.
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void* storage);
    bool boxed;
  };

  template <class Fn>
  static Fn* block_of(void* storage) {
    void* block = nullptr;
    std::memcpy(&block, storage, sizeof block);
    return static_cast<Fn*>(block);
  }

  template <class Fn>
  static constexpr Ops inline_ops{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      /*boxed=*/false};

  template <class Fn>
  static constexpr Ops boxed_ops{
      [](void* p) { (*block_of<Fn>(p))(); },
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(void*)); },
      [](void* p) {
        Fn* fn = block_of<Fn>(p);
        fn->~Fn();
        detail::BlockCache::release(fn, sizeof(Fn));
      },
      /*boxed=*/true};

  void steal(UniqueFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(UniqueFn) == 96,
              "UniqueFn must stay 96 bytes so sim::Event stays 128");

}  // namespace sim
