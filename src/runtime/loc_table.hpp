#pragma once
// Flat open-addressing table keyed by ObjIndex: the per-PE home records and
// location caches of the distributed location manager (§II-D, DESIGN.md §12).
//
// Slots live in one power-of-two allocation, probed linearly and erased by
// backward shift, so there are no tombstones and a lookup stops at the first
// empty slot.  The header is 16 bytes and an empty table allocates nothing,
// which matters because every touched PeLocal block carries two of them.
// The load factor is at most 7/8, so a probe always meets an empty slot.
//
// The slot index is the high bits of a remix of ObjIndexHash, never its low
// bits: home_pe is `ObjIndexHash % active_pes`, so at a power-of-two P every
// home key on one PE shares its low log2(P) bits.
//
// Any insert may rehash, and an erase shifts later slots back: a pointer or
// reference from find() or operator[] is valid only until the next
// operator[] or erase() on the same table.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/index.hpp"

namespace charm {

template <class V>
class LocTable {
 public:
  struct Slot {
    ObjIndex key;
    V value{};
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 4;

  LocTable() = default;
  // Tables live in place inside PagedTable pages.  A defaulted move would
  // leave the source's size and capacity describing slots it no longer owns.
  LocTable(LocTable&&) = delete;
  LocTable& operator=(LocTable&&) = delete;

  std::size_t size() const { return size_; }
  std::size_t capacity() const {
    return slots_ == nullptr ? 0 : std::size_t{1} << log2_cap_;
  }
  /// Host bytes of slot storage: exact, since the slots are the one allocation.
  std::size_t memory_bytes() const { return capacity() * sizeof(Slot); }

  /// Slot where a probe for `k` starts (capacity() must be non-zero).
  std::size_t bucket(const ObjIndex& k) const {
    std::uint64_t h = ObjIndexHash{}(k);
    h ^= h >> 32;
    h *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> (64 - log2_cap_));
  }

  V* find(const ObjIndex& k) {
    if (size_ == 0) return nullptr;
    Slot& s = slots_[locate(k)];
    return s.used ? &s.value : nullptr;
  }
  const V* find(const ObjIndex& k) const { return const_cast<LocTable*>(this)->find(k); }

  /// The value under `k`, inserting a default-constructed one if absent.
  V& operator[](const ObjIndex& k) {
    std::size_t i = 0;
    if (capacity() != 0) {
      i = locate(k);
      if (slots_[i].used) return slots_[i].value;
    }
    if ((std::size_t{size_} + 1) * 8 > capacity() * 7) {
      rehash(capacity() == 0 ? kMinCapacity : 2 * capacity());
      i = locate(k);
    }
    Slot& s = slots_[i];
    s.key = k;
    s.used = true;
    ++size_;
    return s.value;
  }

  /// Removes `k`; returns whether it was present.
  bool erase(const ObjIndex& k) {
    if (size_ == 0) return false;
    std::size_t hole = locate(k);
    if (!slots_[hole].used) return false;
    const std::size_t mask = capacity() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
      // Slot j may fill the hole when the hole lies on j's probe path, i.e.
      // j is at least as far from its own bucket as from the hole (cyclic).
      if (((j - bucket(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drops every entry and the slot storage.
  void clear() {
    slots_.reset();
    size_ = 0;
    log2_cap_ = 0;
  }

 private:
  /// Slot holding `k`, or the empty slot that ends its probe.
  std::size_t locate(const ObjIndex& k) const {
    const std::size_t mask = capacity() - 1;
    std::size_t i = bucket(k);
    while (slots_[i].used && !(slots_[i].key == k)) i = (i + 1) & mask;
    return i;
  }

  void rehash(std::size_t cap) {
    const std::size_t old_cap = capacity();
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(cap);
    log2_cap_ = static_cast<std::uint32_t>(__builtin_ctzll(cap));
    for (std::size_t i = 0; i < old_cap; ++i)
      if (old[i].used) slots_[locate(old[i].key)] = old[i];
  }

  std::unique_ptr<Slot[]> slots_;
  std::uint32_t size_ = 0;
  std::uint32_t log2_cap_ = 0;
};

}  // namespace charm
