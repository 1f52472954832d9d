#pragma once
// Message envelope: everything the runtime needs to route an entry-method
// invocation to a (possibly migrating) chare.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/index.hpp"
#include "runtime/types.hpp"

namespace charm {

/// A message's packed argument bytes.  Up to kInlineBytes live inline, so a
/// small point send is its event slot and nothing else; a larger payload
/// owns a heap buffer drawn from the runtime's PayloadPool, which
/// Runtime::release_payload hands back.  Move-only, and a move copies a
/// fixed number of bytes: the inline half is always copied whole, whatever
/// its used size, so forwarding a message never branches on its length.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  Payload() noexcept {}
  /// Copies `n <= kInlineBytes` bytes inline.
  Payload(const void* data, std::size_t n) noexcept : size_(static_cast<std::uint32_t>(n)) {
    assert(n <= kInlineBytes);
    if (n != 0) std::memcpy(bytes_, data, n);
  }
  /// Takes `buf` as the heap half, whatever its size.
  explicit Payload(std::vector<std::byte>&& buf) : size_(checked_size(buf.size())), heap_(true) {
    new (&buf_) std::vector<std::byte>(std::move(buf));
  }
  Payload(Payload&& o) noexcept { take(o); }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  ~Payload() { reset(); }

  const std::byte* data() const { return heap_ ? buf_.data() : bytes_; }
  std::size_t size() const { return size_; }
  bool on_heap() const { return heap_; }

  /// Moves the heap buffer out (empty for an inline payload) and leaves this
  /// payload empty.
  std::vector<std::byte> take_heap() {
    std::vector<std::byte> out;
    if (heap_) out = std::move(buf_);
    reset();
    return out;
  }

 private:
  static std::uint32_t checked_size(std::size_t n) {
    if (n > UINT32_MAX) throw std::length_error("charm::Payload: over 4 GiB");
    return static_cast<std::uint32_t>(n);
  }
  void reset() noexcept {
    if (heap_) buf_.~vector();
    heap_ = false;
    size_ = 0;
  }
  /// Steals `o` into this (empty) payload and leaves `o` empty.
  void take(Payload& o) noexcept {
    size_ = o.size_;
    heap_ = o.heap_;
    if (heap_) {
      new (&buf_) std::vector<std::byte>(std::move(o.buf_));
      o.reset();
    } else {
      std::memcpy(bytes_, o.bytes_, kInlineBytes);
      o.size_ = 0;
    }
  }

  std::uint32_t size_ = 0;
  bool heap_ = false;
  union {
    std::byte bytes_[kInlineBytes];
    std::vector<std::byte> buf_;
  };
};
static_assert(sizeof(Payload) == 40, "a size word plus a 32-byte union");

struct Envelope {
  enum class Kind : std::uint8_t {
    kPoint,   ///< entry-method invocation on one element
    kCreate,  ///< dynamic element insertion
  };

  Kind kind = Kind::kPoint;
  CollectionId col = -1;
  ObjIndex idx{};
  /// The entry method (EntryId) of a kPoint message, the creator (CreatorId)
  /// of a kCreate message.
  std::int32_t target = -1;
  int priority = kDefaultPriority;

  int src_pe = kInvalidPe;  ///< sending PE, taught the location on a forward

  Payload payload;

  /// Modeled fixed header footprint, also charged for header-only control
  /// and broadcast messages that never materialize an Envelope.
  static constexpr std::size_t kHeaderBytes = 48;

  /// Modeled wire footprint: payload plus the fixed header.
  std::size_t wire_size() const { return payload.size() + kHeaderBytes; }

  static Envelope make(Kind kind, CollectionId col, const ObjIndex& idx,
                       std::int32_t target, int priority, Payload payload,
                       int src_pe) {
    return Envelope{kind, col, idx, target, priority, src_pe, std::move(payload)};
  }
};

}  // namespace charm
