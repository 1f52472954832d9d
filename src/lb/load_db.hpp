#pragma once
// Persistent, incrementally-maintained chare load database (DESIGN.md §13).
//
// The paper's §III-A framework works because the RTS maintains the load
// database *continuously*; this class is that database.  The LB manager feeds
// it O(1) events — element added/removed (seed, migration, destroy,
// checkpoint-restore extraction, shrink/expand rebuild) and per-AtSync load
// updates — and a strategy round reads a Stats snapshot in O(dirty) instead
// of re-walking and re-sorting every chare on every touched PE.
//
// Maintained state:
//  - stable slots (free-listed) holding each live element's identity, hosting
//    PE, and last synced round load; elements carry their slot id in a
//    transient, never-pup'd field;
//  - a dirty-slot set: only slots whose load/coords/migratability may have
//    changed since the last snapshot are re-read at the next one;
//  - per-hosting-PE buckets with a live raw-load sum (round statistics come
//    from these without any scan) plus cached completion sums in canonical
//    bucket order (exactly the per-PE partial sums the from-scratch strategy
//    paths accumulate, so snapshots are bit-identical to rebuilds);
//  - the canonical (col, idx)-ordered ChareInfo cache and a sorted-by-work
//    index over migratable chares, both repaired incrementally: membership
//    churn is batched and merged (no full re-sort) and the work index is
//    repaired by merging the re-ranked entries into the surviving run.
//
// Bit-identity contract: snapshot() must equal the from-scratch gather
// (tests/lb_reference.hpp) byte-for-byte — same chare order, same FP work
// values — and its aux block must equal index_of() of the same chares.  The
// oracle fuzz (tests/features/test_lb_incremental.cpp) enforces this.

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "lb/strategy.hpp"

namespace charm {
class ArrayElementBase;
}

namespace charm::lb {

class LoadDb {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kNoRank = 0xffffffffu;

  /// Deterministic event/maintenance counters (virtual-time simulation makes
  /// them reproducible across hosts; the ablation stats report them).
  struct Counters {
    std::int64_t adds = 0;
    std::int64_t removes = 0;
    std::int64_t load_updates = 0;
    std::int64_t snapshots = 0;
    std::int64_t structural_rebuilds = 0;  ///< snapshots with membership churn
    std::int64_t dirty_flushed = 0;        ///< slot reads across all snapshots
    std::int64_t index_merge_repairs = 0;  ///< work-index repaired by merge
    std::int64_t index_full_sorts = 0;     ///< repairs with no surviving run
    std::int64_t patched_copies = 0;       ///< snapshots patched into a recycled buffer
  };

  /// Registers a live element; O(1) amortized.  `elem` may be null (synthetic
  /// feeds: benchmarks, oracle fuzz) — then `coords`/`elem_migratable` are
  /// authoritative instead of being re-read from the element at snapshots.
  std::uint32_t add(CollectionId col, ObjIndex idx, int pe, double round_load,
                    bool elem_migratable, bool col_migratable,
                    const std::array<double, 3>& coords, const ArrayElementBase* elem);

  /// Unregisters a slot (migration departure, destroy, restore sweep); O(1).
  void remove(std::uint32_t slot);

  /// Records the element's new round load at its AtSync; O(1) plus marking
  /// the slot dirty.  A chare whose load (and, for live elements, coords and
  /// migratability) is bit-identical to the stored state is NOT dirtied —
  /// steady chares cost nothing at the next snapshot.  This is the
  /// per-element-per-round hot path, so the steady case stays inline.
  void update_load(std::uint32_t slot, double round_load) {
    const Hot& h = hot_[slot];
    ++counters_.load_updates;
    if (round_load == h.raw && h.elem == nullptr) return;
    update_load_dirty(slot, round_load);
  }

  std::int64_t size() const { return live_; }

  /// Round statistics for round_complete(): max/avg of per-PE raw load over
  /// active PEs, and average frequency-scaled work.  O(hosting PEs), no
  /// per-chare scan.  PEs hosting nothing contribute exactly 0.0, as the old
  /// dense scan saw them.
  struct RoundAggregates {
    double max_load = 0;
    double avg_load = 0;
    double avg_work = 0;
  };
  RoundAggregates round_aggregates(int active_pes, const SpeedMap& speed) const;

  /// Produces the strategy input: flushes membership churn and dirty slots,
  /// repairs the aggregates and the work index, and returns a self-contained
  /// Stats (chares in canonical order + valid aux block).  Cost O(churn +
  /// dirty + hosting PEs), not O(all chares) — except the total-work fold and
  /// the value copy into the Stats, which are inherently O(n).
  Stats snapshot(int target_pes, const SpeedMap& speed);

  /// Returns a consumed snapshot's buffers for reuse: the next snapshot()
  /// fills the recycled capacity instead of growing fresh vectors — and, when
  /// the buffer is verifiably last round's snapshot (generation tag) and no
  /// membership churn happened, patches only the changed chares instead of
  /// re-copying the whole array.  Purely a copy/allocation optimization —
  /// snapshots are value-identical either way.
  void recycle(Stats&& st) {
    scratch_gen_ = st.aux.valid ? st.aux.db_gen : 0;
    scratch_stats_ = std::move(st);
  }

  const Counters& counters() const { return counters_; }

 private:
  struct Bucket {
    double raw_sum = 0;      ///< live sum of member round loads (round stats)
    double done_all = 0;     ///< cached sum(work/speed), canonical bucket order
    double done_nonmig = 0;  ///< same, non-migratable members only
    bool work_stale = true;  ///< done_* need recomputation at next snapshot
    std::vector<std::uint32_t> ranks;  ///< member ranks, canonical order
  };

  /// Per-slot state the per-round hot paths touch: the last synced round load
  /// and the element pointer (null for synthetic feeds).  Packed 16 bytes per
  /// slot so the update_load sweep streams ~6x less memory than walking the
  /// full Slot records.
  struct Hot {
    double raw = 0;  ///< last synced round load (virtual seconds on the PE)
    const ArrayElementBase* elem = nullptr;
  };

  struct Slot {
    Bucket* bucket = nullptr;  ///< stable: map nodes don't move
    CollectionId col = -1;
    ObjIndex idx{};
    int pe = 0;
    std::uint32_t rank = kNoRank;  ///< position in cache_; kNoRank while pending
    std::array<double, 3> coords{};
    bool elem_migratable = true;
    bool col_migratable = true;
    bool present = false;
    bool pending = false;  ///< added since the last structural rebuild
    bool dirty = false;    ///< queued in dirty_
  };

  void update_load_dirty(std::uint32_t slot, double round_load);
  void mark_dirty(std::uint32_t id);
  void mark_repair(std::uint32_t rank);
  void structural_rebuild();
  void flush_speed_changes(const SpeedMap& speed);
  void flush_dirty(const SpeedMap& speed);
  void recompute_bucket_done(const SpeedMap& speed);
  void repair_desc_index(bool had_rebuild);

  std::vector<Slot> slots_;
  std::vector<Hot> hot_;  ///< parallel to slots_ (update_load fast path)
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> dirty_;        ///< slot ids, dedup'd via Slot::dirty
  std::vector<std::uint32_t> pending_add_;  ///< slot ids, dedup'd via Slot::pending
  std::int64_t live_ = 0;
  bool membership_dirty_ = false;

  /// Work-order index entry: packs the sort key with the rank so the repair
  /// passes stream sequentially instead of chasing cache_ for every compare.
  struct WorkEntry {
    double work = 0;
    std::uint32_t rank = 0;
  };

  std::vector<ChareInfo> cache_;            ///< canonical (col, idx) order
  // Packed mirrors of cache_[r].work / cache_[r].migratable, updated at every
  // write site so the O(n) folds (total work, bucket completion sums, index
  // key reads) stream 8/1 bytes per chare instead of the full ChareInfo.
  // Values are bit-identical to the cache by construction.
  std::vector<double> works_;               ///< parallel to cache_
  std::vector<unsigned char> mig_;          ///< parallel to cache_
  std::vector<std::uint32_t> rank_slot_;    ///< rank -> slot id (kNoSlot = tombstone)
  std::vector<WorkEntry> desc_index_;       ///< migratable, (work desc, rank asc)
  std::map<int, Bucket> pe_;                ///< hosting PEs only, ascending
  SpeedMap speed_;                          ///< speeds the cached works were computed with
  double total_work_ = 0;                   ///< canonical-order left fold over cache_

  // Scratch for snapshot passes (kept to avoid per-round allocation).
  std::vector<std::uint32_t> remap_;        ///< old rank -> new rank after a rebuild
  std::vector<std::uint32_t> repair_ranks_; ///< ranks whose index position changed
  std::vector<std::uint32_t> repair_mark_;  ///< epoch stamp per rank (dedupe)
  std::uint32_t repair_epoch_ = 0;
  std::vector<WorkEntry> repair_old_;       ///< marked entries' old index keys
  std::vector<WorkEntry> survivors_;        ///< index-repair: unchanged sorted run
  std::vector<WorkEntry> fresh_;            ///< index-repair: re-ranked entries
  std::vector<WorkEntry> merged_;           ///< index-repair: merge output (swapped in)
  std::vector<ChareInfo> cache_alt_;        ///< rebuild ping-pong buffer for cache_
  std::vector<double> works_alt_;           ///< rebuild ping-pong for works_
  std::vector<unsigned char> mig_alt_;      ///< rebuild ping-pong for mig_
  std::vector<std::uint32_t> rank_slot_alt_;   ///< rebuild ping-pong for rank_slot_
  std::vector<std::uint32_t> rebuild_adds_;    ///< rebuild: surviving pending adds
  std::vector<std::uint32_t> rebuild_fresh_;   ///< rebuild: new ranks to repair
  std::vector<std::uint32_t> changed_ranks_;   ///< chares rewritten this snapshot
  Stats scratch_stats_;                     ///< recycled snapshot buffers
  std::uint64_t snap_gen_ = 0;              ///< generation stamped into snapshots
  std::uint64_t scratch_gen_ = 0;           ///< scratch buffer's generation (0 = unknown)

  Counters counters_;
};

}  // namespace charm::lb
