#pragma once
// Free-list pools recycling std::vector capacity across messages.
//
// A point send whose packed argument fits Payload's 32 inline bytes needs no
// buffer at all (envelope.hpp).  A larger one packs into a vector from
// PayloadPool, ships it inside an Envelope, and unpacks it at the
// destination, after which the vector dies.  Without pooling that is one
// allocation and one free per message.
// A pool keeps dead buffers (their capacity, not their contents) on a LIFO
// free list; the next acquire reuses the hottest buffer, so the steady state
// allocates nothing as long as payloads fit the retained capacity.
//
// Pools never shrink a buffer and never zero memory — callers receive an
// *empty* vector with capacity >= their reservation and append into it.
// retained_bytes() is the capacity parked on the free list, kept up to date
// on every acquire and release, so the footprint census reads it in O(1)
// (DESIGN.md §12).
//
// VecPool is the shared mechanism; PayloadPool (bytes, message payloads) and
// NumsPool (doubles, reduction contribution buffers) are its instantiations.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace charm {

/// Free-list pool over std::vector<T>.  `kSmall` is the documented "small
/// size class" callers reserve for variable-size payloads (see pack_pooled);
/// buffers above `kMaxRetained` elements are freed rather than retained; at
/// most `kMaxFree` buffers are kept.
template <class T, std::size_t kSmall, std::size_t kMaxRetained,
          std::size_t kMaxFree>
class VecPool {
 public:
  /// Returns an empty vector with capacity >= reserve_elems.
  std::vector<T> acquire(std::size_t reserve_elems) {
    if (!free_.empty()) {
      std::vector<T> buf = std::move(free_.back());
      free_.pop_back();
      retained_bytes_ -= buf.capacity() * sizeof(T);
      if (buf.capacity() < reserve_elems) {
        ++grows_;
        buf.reserve(reserve_elems);
      } else {
        ++hits_;
      }
      return buf;
    }
    ++misses_;
    std::vector<T> buf;
    buf.reserve(reserve_elems);
    return buf;
  }

  /// Hands a dead buffer's capacity back to the pool.  The capacity is kept
  /// as-is, never rounded up to kSmall: retained capacity converges to what
  /// the workload actually packs, and an acquire that needs more grows on
  /// demand.  Eagerly inflating every recycled buffer looks free at small
  /// scale but pins kSmall bytes behind each in-flight message — at a million
  /// 16-byte ghost payloads that is a gigabyte of dead capacity (DESIGN.md
  /// §12).
  void release(std::vector<T>&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > kMaxRetained ||
        free_.size() >= kMaxFree) {
      return;  // let the vector free itself
    }
    buf.clear();
    retained_bytes_ += buf.capacity() * sizeof(T);
    free_.push_back(std::move(buf));
  }

  // Diagnostics (tests assert the steady state stops missing).
  std::size_t free_buffers() const { return free_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t grows() const { return grows_; }
  /// Capacity held by the free list, in bytes.
  std::size_t retained_bytes() const { return retained_bytes_; }

 private:
  std::vector<std::vector<T>> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t grows_ = 0;
  std::size_t retained_bytes_ = 0;
};

/// Message payload buffers.  kMaxFreeBuffers is sized for a burst handler
/// whose few thousand in-flight sends all hold buffers before the first
/// delivery releases one.  release() keeps any buffer of up to
/// kMaxRetainedBytes, so the worst case pinned memory is kMaxFreeBuffers *
/// kMaxRetainedBytes = 4096 * 64 KiB = 256 MiB (4 MiB when every retained
/// buffer is kSmallBytes).  kMaxRetainedBytes keeps one giant checkpoint
/// payload from pinning memory forever.
class PayloadPool : public VecPool<std::byte, 1024, (1u << 16), 4096> {
 public:
  static constexpr std::size_t kSmallBytes = 1024;
  static constexpr std::size_t kMaxRetainedBytes = 1 << 16;
  static constexpr std::size_t kMaxFreeBuffers = 4096;
};

/// Reduction contribution buffers (vectors of doubles): per-contribution and
/// per-level partial-combine values cycle through here so steady-state POD
/// reductions allocate nothing (DESIGN.md §10).
using NumsPool = VecPool<double, 256, (1u << 13), 1024>;

}  // namespace charm
