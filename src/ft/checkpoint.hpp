#pragma once
// Disk checkpoint/restart (§III-B).
//
// Checkpoints are chare-based: each element is PUPed with its index and
// collection, so a run can restart on ANY number of PEs — elements are simply
// re-placed under the new home mapping.  The restart program must create its
// collections in the same order as the checkpointing program (collection ids
// are positional, exactly like Charm++'s registration order requirement).
//
// The file is written host-side; the *cost* (per-PE pack + parallel file
// write at a fixed per-PE disk bandwidth) is charged in virtual time.

#include <string>
#include <vector>

#include "runtime/callback.hpp"
#include "runtime/runtime.hpp"

namespace charm::ft {

/// One element's packed state: a checkpoint file record and an in-memory image.
struct ElementImage {
  CollectionId col = -1;
  ObjIndex idx{};
  std::vector<std::byte> bytes;
  void pup(pup::Er& p) {
    p | col;
    p | idx;
    p | bytes;
  }
};

/// Serializes every checkpointable collection to `path`; invokes `done` when
/// the modeled parallel write completes.  Call from a driver handler while the
/// application is at a step boundary.  Throws std::logic_error while any PE
/// is failed (its share of the write could never complete).
void checkpoint_to_file(Runtime& rt, const std::string& path, Callback done);

/// Repopulates previously created (empty) collections from `path`, placing
/// each element at its home PE under the *current* PE count.  Driver-side;
/// returns the number of elements restored.  A truncated file, trailing bytes
/// or an unknown collection id throw std::runtime_error before any seeding.
std::size_t restart_from_file(Runtime& rt, const std::string& path);

}  // namespace charm::ft
