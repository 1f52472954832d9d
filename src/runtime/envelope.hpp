#pragma once
// Message envelope: everything the runtime needs to route an entry-method
// invocation to a (possibly migrating) chare.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/index.hpp"
#include "runtime/types.hpp"

namespace charm {

struct Envelope {
  enum class Kind : std::uint8_t {
    kPoint,   ///< entry-method invocation on one element
    kCreate,  ///< dynamic element insertion
  };

  Kind kind = Kind::kPoint;
  CollectionId col = -1;
  ObjIndex idx{};
  EntryId ep = -1;
  CreatorId creator = -1;
  int priority = kDefaultPriority;

  int src_pe = kInvalidPe;  ///< sending PE, taught the location on a forward

  std::vector<std::byte> payload;

  /// Modeled fixed header footprint, also charged for header-only control
  /// and broadcast messages that never materialize an Envelope.
  static constexpr std::size_t kHeaderBytes = 48;

  /// Modeled wire footprint: payload plus the fixed header.
  std::size_t wire_size() const { return payload.size() + kHeaderBytes; }

  /// The one builder for both kinds: `target` is the entry method of a
  /// kPoint message and the creator of a kCreate message.
  static Envelope make(Kind kind, CollectionId col, const ObjIndex& idx,
                       std::int32_t target, int priority,
                       std::vector<std::byte> payload, int src_pe) {
    Envelope env;
    env.kind = kind;
    env.col = col;
    env.idx = idx;
    (kind == Kind::kPoint ? env.ep : env.creator) = target;
    env.priority = priority;
    env.src_pe = src_pe;
    env.payload = std::move(payload);
    return env;
  }
};

}  // namespace charm
