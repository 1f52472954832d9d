#pragma once
// Internal per-collection state: element storage, the distributed location
// directory (home tables + caches), and reduction slots.
//
// Memory is logically partitioned per PE: a PE's handler only touches its own
// PeLocal block; cross-PE effects travel as messages.  This is what makes the
// emulation faithful to the paper's distributed location manager (§II-D):
// each PE holds O(local elements + homes hashed to it), never O(total).

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/callback.hpp"
#include "runtime/chare.hpp"
#include "runtime/envelope.hpp"
#include "runtime/types.hpp"
#include "sim/paged_table.hpp"

namespace charm {

/// Home-table record: the authoritative location of one element.
struct HomeRecord {
  int location = kInvalidPe;
  bool in_transit = false;
  std::uint32_t arrived_epoch = 0;       ///< last migration epoch seen complete
  std::vector<Envelope> buffered;        ///< messages parked during migration
};

/// One reduction's combined state.  Used both as the collection-global slot
/// (flat combine / tree bookkeeping) and as a per-PE partial combine under
/// tree collectives (DESIGN.md §10).
struct ReduxSlot {
  std::int64_t count = 0;
  bool has_nums = false;
  ReduceOp op = ReduceOp::kSum;
  std::vector<double> nums;
  std::vector<std::vector<std::byte>> chunks;
  Callback cb;
  /// Tree up-sweep: child partials still expected before this PE forwards
  /// its combined partial to its parent (0 outside an active wave).
  std::int32_t wave_remaining = 0;
};

using ReduxMap = std::unordered_map<std::uint64_t, ReduxSlot>;

struct PeLocal {
  std::unordered_map<ObjIndex, std::unique_ptr<ArrayElementBase>, ObjIndexHash> elems;
  std::unordered_map<ObjIndex, HomeRecord, ObjIndexHash> home;
  std::unordered_map<ObjIndex, int, ObjIndexHash> loc_cache;
  /// Per-PE partial combines under tree collectives, keyed by sequence.
  ReduxMap partial;
  /// Recycled map node: the steady state extracts one partial per wave and
  /// reuses its node for the next, so tree reductions allocate nothing.
  ReduxMap::node_type partial_spare;
};

/// A chare array or group instance.
class Collection {
 public:
  using ReduxSlot = charm::ReduxSlot;

  CollectionId id = -1;
  ChareTypeId type = -1;
  bool migratable = true;
  bool raw_move = false;   ///< move live objects without PUP (AMPI ranks)
  bool is_group = false;
  bool checkpointable = true;  ///< included in FT checkpoints (groups are not)

  /// Per-PE blocks, paged on first touch: a PE that never hosts an element,
  /// home record, or cache entry for this collection costs zero bytes
  /// (DESIGN.md §12).  An untouched block reads as empty maps — identical to
  /// what a dense table held before any message reached that PE.
  sim::PagedTable<PeLocal> pe;
  std::int64_t total_elements = 0;

  /// In-flight reductions keyed by sequence number.
  ReduxMap redux;
  /// Recycled map node (see PeLocal::partial_spare).
  ReduxMap::node_type redux_spare;
  /// Reduction number newly created elements join: dynamically inserted
  /// chares (AMR refinement) must not restart at sequence 0 while existing
  /// chares are at N, or collection-wide reductions would never complete.
  std::uint64_t redux_floor = 0;

  explicit Collection(int npes) : pe(static_cast<std::size_t>(npes)) {}

  /// Mutable access; materializes the PE's block on first touch.
  PeLocal& local(int p) { return pe.ref(static_cast<std::size_t>(p)); }

  /// Touched block or nullptr; never materializes.  Read paths (location
  /// cache probes, broadcast leg scans, LB/FT sweeps) use this so a lookup
  /// on a never-touched PE stays zero-byte.
  PeLocal* local_if(int p) { return pe.probe(static_cast<std::size_t>(p)); }
  const PeLocal* local_if(int p) const { return pe.probe(static_cast<std::size_t>(p)); }

  ArrayElementBase* find(int p, const ObjIndex& ix) {
    PeLocal* pl = local_if(p);
    if (pl == nullptr) return nullptr;
    auto it = pl->elems.find(ix);
    return it == pl->elems.end() ? nullptr : it->second.get();
  }
};

}  // namespace charm
