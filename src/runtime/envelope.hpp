#pragma once
// Message envelope: everything the runtime needs to route an entry-method
// invocation to a (possibly migrating) chare.

#include <cstddef>
#include <cstdint>
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
};

}  // namespace charm
