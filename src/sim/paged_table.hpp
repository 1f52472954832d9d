#pragma once
// First-touch paged storage for per-PE state (DESIGN.md §12).
//
// A PagedTable<T> presents a fixed logical size (the configured PE count) but
// allocates backing storage in fixed-size pages only when a slot is first
// touched through `ref()`.  Untouched slots cost zero bytes beyond one page
// pointer per 64 slots and read as default-constructed T through `probe()` /
// `at_or_default()`, which never materialize.  This is what lets a
// 1M-virtual-PE machine whose workload touches a few thousand PEs run in a
// few MB instead of materializing a dense vector up front.
//
// Determinism contract: paging is a host-memory concern only.  A slot's
// logical value is identical whether it was materialized eagerly or lazily
// (default T until first mutation), `for_each_touched` visits slots in
// ascending index order, and nothing here feeds virtual time — so a lazy run
// and an eagerly materialized run (`materialize_all()`) are observationally
// byte-identical (tests/core/test_paged_state.cpp fuzzes exactly this).
//
// The hot-path accessor is branch-cheap: one shift, one page-pointer load +
// null test, and a touched-bit check.  The per-page `touched` mask keeps an
// exact touched-slot census (not just touched pages) for the memory
// accounting layer (Machine::touched_pes, bytes per touched PE).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace sim {

template <typename T>
class PagedTable {
 public:
  static constexpr std::size_t kPageShift = 6;
  static constexpr std::size_t kPageSlots = std::size_t{1} << kPageShift;
  static constexpr std::size_t kSlotMask = kPageSlots - 1;

  struct Page {
    std::uint64_t touched = 0;  ///< bit i set once slots[i] was ref()'d
    T slots[kPageSlots];
  };

  PagedTable() = default;
  explicit PagedTable(std::size_t n) { reset(n); }

  /// Sets the logical size and drops every page (all slots back to default).
  void reset(std::size_t n) {
    size_ = n;
    touched_ = 0;
    pages_.clear();
    pages_.resize((n + kPageSlots - 1) >> kPageShift);
  }

  std::size_t size() const { return size_; }
  /// Exact number of slots ever handed out mutably.
  std::size_t touched() const { return touched_; }
  std::size_t pages_allocated() const { return live_pages_; }

  /// Mutable access; materializes the slot's page on first touch.
  T& ref(std::size_t i) {
    check(i);
    std::unique_ptr<Page>& page = pages_[i >> kPageShift];
    if (page == nullptr) {
      page = std::make_unique<Page>();
      ++live_pages_;
    }
    const std::uint64_t bit = std::uint64_t{1} << (i & kSlotMask);
    if ((page->touched & bit) == 0) {
      page->touched |= bit;
      ++touched_;
    }
    return page->slots[i & kSlotMask];
  }

  /// Touched slot or nullptr; never materializes.  The mutable overload also
  /// returns nullptr for never-touched slots (their page may exist for a
  /// neighbour) so callers cannot mutate state the touched census misses.
  T* probe(std::size_t i) {
    return const_cast<T*>(static_cast<const PagedTable*>(this)->probe(i));
  }
  const T* probe(std::size_t i) const {
    check(i);
    const Page* page = pages_[i >> kPageShift].get();
    if (page == nullptr) return nullptr;
    const std::uint64_t bit = std::uint64_t{1} << (i & kSlotMask);
    if ((page->touched & bit) == 0) return nullptr;
    return &page->slots[i & kSlotMask];
  }

  /// Read-only view of any slot: the live value for touched slots, the shared
  /// default-constructed T otherwise.  Never materializes.
  const T& at_or_default(std::size_t i) const {
    const T* p = probe(i);
    return p != nullptr ? *p : default_slot();
  }

  /// Visits every touched slot in ascending index order (the deterministic
  /// replacement for dense iteration: untouched slots hold default T, so any
  /// fold whose default contribution is neutral is unchanged).
  template <typename F>
  void for_each_touched(F&& f) {
    for_each_impl(*this, f);
  }
  template <typename F>
  void for_each_touched(F&& f) const {
    for_each_impl(*this, f);
  }

  /// Eagerly touches every slot — the "dense" half of the dense-vs-lazy
  /// equivalence fuzz, and a fallback for callers that really want vector
  /// semantics.
  void materialize_all() {
    for (std::size_t i = 0; i < size_; ++i) ref(i);
  }

  /// Host bytes resident in the table (pages + the page-pointer spine).
  std::size_t memory_bytes() const {
    return live_pages_ * sizeof(Page) + pages_.capacity() * sizeof(pages_[0]);
  }

 private:
  template <typename Self, typename F>
  static void for_each_impl(Self& self, F& f) {
    for (std::size_t pi = 0; pi < self.pages_.size(); ++pi) {
      auto* page = self.pages_[pi].get();
      if (page == nullptr) continue;
      std::uint64_t mask = page->touched;
      while (mask != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(mask));
        mask &= mask - 1;
        f((pi << kPageShift) + bit, page->slots[bit]);
      }
    }
  }

  static const T& default_slot() {
    static const T kDefault{};
    return kDefault;
  }

  void check(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("sim::PagedTable: index out of range");
  }

  std::size_t size_ = 0;
  std::size_t touched_ = 0;
  std::size_t live_pages_ = 0;
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace sim
