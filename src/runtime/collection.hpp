#pragma once
// Internal per-collection state: element storage, the distributed location
// directory (home tables + caches), and reduction slots.
//
// Memory is logically partitioned per PE: a PE's handler only touches its own
// PeLocal block; cross-PE effects travel as messages.  This is what makes the
// emulation faithful to the paper's distributed location manager (§II-D):
// each PE holds O(local elements + homes hashed to it), never O(total).
// Home records and cache entries sit in flat LocTables (32- and 24-byte
// slots); envelopes parked at a home live in a side map that exists only
// while something is parked on that PE, and tree-reduction partials in a
// side block that exists once the PE has held one.  `elems` stays a
// node-based map: its iteration order drives broadcast delivery, LB
// registration, checkpoint order and FP reduction order (DESIGN.md §12).
// Its nodes and buckets come from the element objects' SlabPool; the
// container, hash and rehash policy are std's, so that order is unchanged.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/callback.hpp"
#include "runtime/chare.hpp"
#include "runtime/envelope.hpp"
#include "runtime/loc_table.hpp"
#include "runtime/slab_pool.hpp"
#include "runtime/types.hpp"
#include "sim/paged_table.hpp"

namespace charm {

/// Home-table record: the authoritative location of one element.  Messages
/// parked while it is unknown or in transit live in PeLocal::parked.
struct HomeRecord {
  int location = kInvalidPe;
  std::uint32_t arrived_epoch = 0;  ///< last migration epoch seen complete
  bool in_transit = false;
};
static_assert(sizeof(LocTable<HomeRecord>) == 16);
static_assert(sizeof(LocTable<HomeRecord>::Slot) == 32);
static_assert(sizeof(LocTable<int>::Slot) == 24);

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

/// In-flight reduction slots keyed by sequence, plus one recycled map node:
/// the steady state extracts one slot per reduction and reuses its node for
/// the next, so reductions allocate nothing.
struct ReduxSlots {
  ReduxMap map;
  ReduxMap::node_type spare;
};

/// One PE's elements, in the order DESIGN.md §12 pins.
using ElemMap =
    std::unordered_map<ObjIndex, std::unique_ptr<ArrayElementBase>, ObjIndexHash,
                       std::equal_to<ObjIndex>,
                       SlabAllocator<std::pair<const ObjIndex,
                                               std::unique_ptr<ArrayElementBase>>>>;

struct PeLocal {
  using Parked = std::unordered_map<ObjIndex, std::vector<Envelope>, ObjIndexHash>;

  ElemMap elems;
  LocTable<HomeRecord> home;
  LocTable<int> loc_cache;
  /// Messages parked at this home, per element in arrival order.  Allocated
  /// on the first park and dropped once empty.
  std::unique_ptr<Parked> parked;
  /// Per-PE partial combines under tree collectives.  Allocated the first
  /// time this PE holds a partial and kept, so later waves allocate nothing.
  std::unique_ptr<ReduxSlots> partials;

  ReduxSlots& tree_partials() {
    if (partials == nullptr) partials = std::make_unique<ReduxSlots>();
    return *partials;
  }

  void park(Envelope&& env) {
    if (parked == nullptr) parked = std::make_unique<Parked>();
    (*parked)[env.idx].push_back(std::move(env));
  }
  /// Takes the messages parked for `ix`, oldest first.
  std::vector<Envelope> unpark(const ObjIndex& ix) {
    if (parked == nullptr) return {};
    Parked::node_type node = parked->extract(ix);
    if (parked->empty()) parked.reset();
    return node.empty() ? std::vector<Envelope>{} : std::move(node.mapped());
  }
  /// Drops a home record together with the messages parked under it.
  void erase_home(const ObjIndex& ix) {
    home.erase(ix);
    if (parked != nullptr && parked->erase(ix) != 0 && parked->empty()) parked.reset();
  }
  /// Drops every home record, parked message and cache entry.
  void clear_location() {
    home.clear();
    loc_cache.clear();
    parked.reset();
  }
};
static_assert(sizeof(PeLocal) <= 120, "PeLocal is paged for every touched PE");

/// A chare array or group instance.
class Collection {
 public:
  using ReduxSlot = charm::ReduxSlot;

  CollectionId id = -1;
  ChareTypeId type = -1;
  bool raw_move = false;   ///< move live objects without PUP (AMPI ranks)
  bool is_group = false;

  /// Load balancing may move its elements (groups stay put).
  bool migratable() const { return !is_group; }
  /// Included in FT checkpoints: not groups, and not raw-moved collections,
  /// whose live objects cannot be byte-serialized.
  bool checkpointable() const { return !is_group && !raw_move; }

  /// Per-PE blocks, paged on first touch: a PE that never hosts an element,
  /// home record, or cache entry for this collection costs zero bytes
  /// (DESIGN.md §12).  An untouched block reads as empty maps — identical to
  /// what a dense table held before any message reached that PE.
  sim::PagedTable<PeLocal> pe;
  std::int64_t total_elements = 0;

  /// In-flight reductions keyed by sequence number.
  ReduxSlots redux;
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

  /// Host bytes of the paged PeLocal blocks plus every location table's
  /// slot storage.  Element objects and `elems` nodes and buckets are
  /// SlabPool bytes, counted by Runtime::MemoryFootprint::element_bytes;
  /// parked envelopes and reduction side blocks are not counted.
  std::size_t memory_bytes() const {
    std::size_t bytes = pe.memory_bytes();
    pe.for_each_touched([&bytes](std::size_t, const PeLocal& pl) {
      bytes += pl.home.memory_bytes() + pl.loc_cache.memory_bytes();
    });
    return bytes;
  }

  /// Calls `f(const ArrayElementBase&)` for every element, PE by PE in
  /// ascending order (the order of a dense `for pe < npes` loop, so FP folds
  /// are unchanged), skipping never-touched PEs without materializing them.
  template <class F>
  void for_each_element(F&& f) const {
    pe.for_each_touched([&f](std::size_t, const PeLocal& pl) {
      for (const auto& [ix, obj] : pl.elems) f(std::as_const(*obj));
    });
  }

  ArrayElementBase* find(int p, const ObjIndex& ix) {
    PeLocal* pl = local_if(p);
    if (pl == nullptr) return nullptr;
    auto it = pl->elems.find(ix);
    return it == pl->elems.end() ? nullptr : it->second.get();
  }
};

}  // namespace charm
