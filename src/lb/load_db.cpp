#include "lb/load_db.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "runtime/chare.hpp"

namespace charm::lb {

namespace {

// Canonical chare order — must match the sort of the from-scratch gather
// (tests/lb_reference.hpp).
bool key_less(CollectionId ac, const ObjIndex& ai, CollectionId bc, const ObjIndex& bi) {
  if (ac != bc) return ac < bc;
  if (ai.a != bi.a) return ai.a < bi.a;
  return ai.b < bi.b;
}

}  // namespace

std::uint32_t LoadDb::add(CollectionId col, ObjIndex idx, int pe, double round_load,
                          bool elem_migratable, bool col_migratable,
                          const std::array<double, 3>& coords, const ArrayElementBase* elem) {
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    hot_.emplace_back();
  }
  Slot& s = slots_[id];
  Hot& h = hot_[id];
  s.col = col;
  s.idx = idx;
  s.pe = pe;
  h.raw = round_load;
  s.rank = kNoRank;
  h.elem = elem;
  s.coords = coords;
  s.elem_migratable = elem_migratable;
  s.col_migratable = col_migratable;
  s.present = true;
  Bucket& b = pe_[pe];
  b.raw_sum += round_load;
  s.bucket = &b;
  if (!s.pending) {
    s.pending = true;
    pending_add_.push_back(id);
  }
  mark_dirty(id);
  membership_dirty_ = true;
  ++live_;
  ++counters_.adds;
  return id;
}

void LoadDb::remove(std::uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.present);
  s.bucket->raw_sum -= hot_[slot].raw;
  if (s.rank != kNoRank) rank_slot_[s.rank] = kNoSlot;  // tombstone until rebuild
  s.present = false;
  hot_[slot].elem = nullptr;
  free_.push_back(slot);
  membership_dirty_ = true;
  --live_;
  ++counters_.removes;
}

void LoadDb::update_load_dirty(std::uint32_t slot, double round_load) {
  Slot& s = slots_[slot];
  Hot& h = hot_[slot];
  if (round_load == h.raw) {
    // The measurement is bit-identical to the stored one.  If the element's
    // other strategy-visible state (coords, migratability) also matches, the
    // flush pass would be a no-op — skip the dirty mark so a steady chare
    // costs nothing at the next snapshot.  The element is parked at its sync
    // barrier between this call and the snapshot, so the compared state
    // cannot change in between.  (Synthetic elem == nullptr slots already
    // returned from the inline fast path.)
    if (h.elem != nullptr && h.elem->lb_coords() == s.coords &&
        h.elem->migratable() == s.elem_migratable)
      return;
  }
  s.bucket->raw_sum += round_load - h.raw;
  h.raw = round_load;
  mark_dirty(slot);
}

void LoadDb::mark_dirty(std::uint32_t id) {
  Slot& s = slots_[id];
  if (s.dirty) return;
  s.dirty = true;
  dirty_.push_back(id);
}

void LoadDb::mark_repair(std::uint32_t rank) {
  if (repair_mark_[rank] == repair_epoch_) return;
  repair_mark_[rank] = repair_epoch_;
  repair_ranks_.push_back(rank);
  // Capture the entry's current (= old) index key.  Every cached-work change
  // goes through a mark, so an in-index entry's packed key always equals
  // works_[rank] at mark time; the steady repair path uses these keys to
  // drop re-ranked entries with a sequential sweep instead of a per-survivor
  // random lookup.  (Callers must mark BEFORE overwriting the cached work.)
  repair_old_.push_back({works_[rank], rank});
}

LoadDb::RoundAggregates LoadDb::round_aggregates(int active_pes,
                                                 const SpeedMap& speed) const {
  RoundAggregates a;
  if (active_pes <= 0) return a;
  double mx = 0.0;
  bool any = false;
  int hosting_below = 0;
  double sum = 0.0;
  double total_work = 0.0;
  for (const auto& [pe, b] : pe_) {
    total_work += b.raw_sum * speed[static_cast<std::size_t>(pe)];
    if (pe >= active_pes) continue;  // beyond-active hosts count toward work only
    ++hosting_below;
    sum += b.raw_sum;  // adding the skipped PEs' exact 0.0 would be a no-op
    if (!any || b.raw_sum > mx) {
      mx = b.raw_sum;
      any = true;
    }
  }
  if (hosting_below < active_pes && (!any || mx < 0.0)) mx = 0.0;  // idle PEs read 0.0
  a.max_load = any || hosting_below < active_pes ? mx : 0.0;
  a.avg_load = sum / active_pes;
  a.avg_work = total_work / active_pes;
  return a;
}

void LoadDb::structural_rebuild() {
  ++counters_.structural_rebuilds;
  membership_dirty_ = false;

  // Collect surviving pending adds (a slot added and removed between
  // snapshots never reaches the cache; duplicate queue entries from free-list
  // reuse dedupe through the per-slot flag).
  std::vector<std::uint32_t>& adds = rebuild_adds_;
  adds.clear();
  adds.reserve(pending_add_.size());
  for (std::uint32_t id : pending_add_) {
    Slot& s = slots_[id];
    if (s.present && s.pending) adds.push_back(id);
    s.pending = false;
  }
  pending_add_.clear();
  std::sort(adds.begin(), adds.end(), [&](std::uint32_t x, std::uint32_t y) {
    return key_less(slots_[x].col, slots_[x].idx, slots_[y].col, slots_[y].idx);
  });

  // Compact tombstones out of the old cache and merge the sorted adds in —
  // one pass, no full re-sort.  (col, idx) keys are unique among live slots:
  // a migration removes the departing slot before the arrival is added.
  // Output goes to retained ping-pong buffers (swapped in at the end) so a
  // churn-heavy workload does not reallocate the cache every round.
  const std::size_t old_n = cache_.size();
  remap_.assign(old_n, kNoRank);
  std::vector<ChareInfo>& new_cache = cache_alt_;
  std::vector<double>& new_works = works_alt_;
  std::vector<unsigned char>& new_mig = mig_alt_;
  std::vector<std::uint32_t>& new_rank_slot = rank_slot_alt_;
  std::vector<std::uint32_t>& new_ranks = rebuild_fresh_;
  new_cache.clear();
  new_works.clear();
  new_mig.clear();
  new_rank_slot.clear();
  new_ranks.clear();
  new_cache.reserve(static_cast<std::size_t>(live_));
  new_works.reserve(static_cast<std::size_t>(live_));
  new_mig.reserve(static_cast<std::size_t>(live_));
  new_rank_slot.reserve(static_cast<std::size_t>(live_));
  new_ranks.reserve(adds.size());
  std::size_t i = 0;
  std::size_t j = 0;
  auto skip_dead = [&]() {
    while (i < old_n && rank_slot_[i] == kNoSlot) ++i;
  };
  skip_dead();
  while (i < old_n || j < adds.size()) {
    bool take_old;
    if (i == old_n) {
      take_old = false;
    } else if (j == adds.size()) {
      take_old = true;
    } else {
      const ChareInfo& oc = cache_[i];
      const Slot& ns = slots_[adds[j]];
      take_old = key_less(oc.col, oc.idx, ns.col, ns.idx);
    }
    const auto rank = static_cast<std::uint32_t>(new_cache.size());
    if (take_old) {
      remap_[i] = rank;
      slots_[rank_slot_[i]].rank = rank;
      new_cache.push_back(cache_[i]);
      new_works.push_back(works_[i]);
      new_mig.push_back(mig_[i]);
      new_rank_slot.push_back(rank_slot_[i]);
      ++i;
      skip_dead();
    } else {
      Slot& s = slots_[adds[j]];
      s.rank = rank;
      ChareInfo ci;
      ci.col = s.col;
      ci.idx = s.idx;
      ci.pe = s.pe;
      ci.work = 0.0;  // the slot is dirty; the flush pass sets the real work
      ci.migratable = s.elem_migratable && s.col_migratable;
      ci.coords = s.coords;
      new_cache.push_back(ci);
      new_works.push_back(ci.work);
      new_mig.push_back(ci.migratable ? 1 : 0);
      new_rank_slot.push_back(adds[j]);
      new_ranks.push_back(rank);
      ++j;
    }
  }
  cache_.swap(new_cache);
  works_.swap(new_works);
  mig_.swap(new_mig);
  rank_slot_.swap(new_rank_slot);

  // Rebuild the per-PE buckets in one ascending walk; recomputing raw_sum
  // here also resets any accumulated incremental rounding drift.
  for (auto& [pe, b] : pe_) {
    (void)pe;
    b.ranks.clear();
    b.raw_sum = 0.0;
    b.work_stale = true;
  }
  for (std::uint32_t rank = 0; rank < cache_.size(); ++rank) {
    Slot& s = slots_[rank_slot_[rank]];
    s.bucket->ranks.push_back(rank);
    s.bucket->raw_sum += hot_[rank_slot_[rank]].raw;
  }
  for (auto it = pe_.begin(); it != pe_.end();) {
    it = it->second.ranks.empty() ? pe_.erase(it) : std::next(it);
  }

  if (repair_mark_.size() < cache_.size()) repair_mark_.resize(cache_.size(), 0);
  for (std::uint32_t r : new_ranks) mark_repair(r);
}

void LoadDb::flush_dirty(const SpeedMap& speed) {
  for (std::uint32_t id : dirty_) {
    Slot& s = slots_[id];
    s.dirty = false;
    if (!s.present) continue;
    ++counters_.dirty_flushed;
    const Hot& h = hot_[id];
    if (h.elem) {
      // Re-read mutable element state exactly where the old rebuild read it.
      s.coords = h.elem->lb_coords();
      s.elem_migratable = h.elem->migratable();
    }
    ChareInfo& ci = cache_[s.rank];
    const double w = h.raw * speed[static_cast<std::size_t>(s.pe)];
    const bool mig = s.elem_migratable && s.col_migratable;
    if (w != ci.work || mig != ci.migratable) {
      mark_repair(s.rank);
      s.bucket->work_stale = true;
    }
    ci.work = w;
    ci.migratable = mig;
    ci.coords = s.coords;
    works_[s.rank] = w;
    mig_[s.rank] = mig ? 1 : 0;
    changed_ranks_.push_back(s.rank);
  }
  dirty_.clear();
}

void LoadDb::flush_speed_changes(const SpeedMap& speed) {
  if (speed == speed_) return;
  // A PE whose speed changed invalidates the cached work of every chare it
  // hosts, dirty or not.
  auto handle = [&](int pe) {
    auto it = pe_.find(pe);
    if (it == pe_.end()) return;
    Bucket& b = it->second;
    b.work_stale = true;
    const double sp = speed[static_cast<std::size_t>(pe)];
    for (std::uint32_t r : b.ranks) {
      const double w = hot_[rank_slot_[r]].raw * sp;
      ChareInfo& ci = cache_[r];
      if (w != ci.work) {
        mark_repair(r);  // before the overwrite: the mark captures the old key
        ci.work = w;
        works_[r] = w;
        changed_ranks_.push_back(r);
      }
    }
  };
  const auto& a = speed_.entries();
  const auto& b = speed.entries();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      handle(a[i++].first);
    } else if (i == a.size() || b[j].first < a[i].first) {
      handle(b[j++].first);
    } else {
      if (a[i].second != b[j].second) handle(a[i].first);
      ++i;
      ++j;
    }
  }
  speed_ = speed;
}

void LoadDb::recompute_bucket_done(const SpeedMap& speed) {
  for (auto& [pe, b] : pe_) {
    if (!b.work_stale) continue;
    b.work_stale = false;
    const double sp = speed[static_cast<std::size_t>(pe)];
    b.done_all = 0.0;
    b.done_nonmig = 0.0;
    // Canonical bucket order: a PE's completion sum sees exactly the addend
    // sequence the from-scratch strategy loops accumulate for that PE, so the
    // cached value is bit-identical to theirs.  w / 1.0 == w bitwise for
    // every double, so default-speed PEs (the common case) skip the divide.
    if (sp == 1.0) {
      for (std::uint32_t r : b.ranks) {
        const double w = works_[r];
        b.done_all += w;
        if (!mig_[r]) b.done_nonmig += w;
      }
    } else {
      for (std::uint32_t r : b.ranks) {
        const double w = works_[r];
        b.done_all += w / sp;
        if (!mig_[r]) b.done_nonmig += w / sp;
      }
    }
  }
}

void LoadDb::repair_desc_index(bool had_rebuild) {
  if (repair_ranks_.empty() && !had_rebuild) return;
  auto desc_cmp = [](const WorkEntry& a, const WorkEntry& b) {
    if (a.work != b.work) return a.work > b.work;
    return a.rank < b.rank;
  };
  std::vector<WorkEntry>& fresh = fresh_;
  fresh.clear();
  fresh.reserve(repair_ranks_.size());
  for (std::uint32_t r : repair_ranks_)
    if (mig_[r]) fresh.push_back({works_[r], r});
  std::sort(fresh.begin(), fresh.end(), desc_cmp);

  std::size_t kept = 0;
  if (!had_rebuild) {
    // Steady path (no membership churn): entries whose work and migratability
    // are unchanged are already in order, so one sequential sweep drops the
    // re-ranked entries — matched against their old keys, sorted into the
    // index's own order — while merging the re-sorted fresh run in the same
    // output pass.  No per-entry random lookups.  A marked key that was never
    // in the index (a non-migratable chare) matches nothing and is passed
    // over as the sweep crosses its sort position.
    std::vector<WorkEntry>& marked = survivors_;
    marked = repair_old_;
    std::sort(marked.begin(), marked.end(), desc_cmp);
    // Sentinels sorting after every real entry (-inf work, impossible rank)
    // let the sweep drop the bounds checks; raw-pointer output drops the
    // push_back capacity checks.  The sweep is the repair's O(n) inner loop —
    // every removed branch counts.
    const WorkEntry sentinel{-std::numeric_limits<double>::infinity(), kNoRank};
    marked.push_back(sentinel);
    fresh.push_back(sentinel);
    // Grow-then-shrink keeps merged_ at its high-water size across rounds, so
    // the resize below extends by at most the fresh count (the two swapped
    // buffers would otherwise leapfrog each other's capacity and reallocate
    // every round).
    const std::size_t cap = desc_index_.size() + fresh.size();
    if (merged_.size() < cap) merged_.resize(cap);
    const WorkEntry* mp = marked.data();
    const WorkEntry* fp = fresh.data();
    const WorkEntry* fend = fp + fresh.size() - 1;  // stop before the sentinel
    WorkEntry* out = merged_.data();
    for (const WorkEntry& e : desc_index_) {
      while (desc_cmp(*mp, e)) ++mp;
      if (mp->rank == e.rank && mp->work == e.work) {
        ++mp;
        continue;  // re-ranked: its fresh entry (if still migratable) re-inserts it
      }
      while (desc_cmp(*fp, e)) *out++ = *fp++;
      *out++ = e;
    }
    while (fp != fend) *out++ = *fp++;
    fresh.pop_back();  // drop the sentinel (the counters below test emptiness)
    merged_.resize(static_cast<std::size_t>(out - merged_.data()));
    kept = merged_.size() - fresh.size();
    desc_index_.swap(merged_);
  } else {
    // Rebuild path: ranks moved, so remap the surviving run (monotone — order
    // is preserved) and merge the fresh run against it.  Merging two runs
    // sorted by the same strict total order (ranks are unique) yields exactly
    // the full sort's sequence.
    std::vector<WorkEntry>& survivors = survivors_;
    survivors.clear();
    survivors.reserve(desc_index_.size());
    for (const WorkEntry& e : desc_index_) {
      const std::uint32_t r = e.rank < remap_.size() ? remap_[e.rank] : kNoRank;
      if (r == kNoRank) continue;
      if (repair_mark_[r] == repair_epoch_) continue;
      survivors.push_back({e.work, r});
    }
    kept = survivors.size();
    merged_.resize(survivors.size() + fresh.size());
    std::merge(survivors.begin(), survivors.end(), fresh.begin(), fresh.end(), merged_.begin(),
               desc_cmp);
    desc_index_.swap(merged_);
  }
  repair_ranks_.clear();
  repair_old_.clear();
  if (!fresh.empty()) {
    if (kept == 0)
      ++counters_.index_full_sorts;
    else
      ++counters_.index_merge_repairs;
  }
}

Stats LoadDb::snapshot(int target_pes, const SpeedMap& speed) {
  ++counters_.snapshots;
  if (++repair_epoch_ == 0) {
    std::fill(repair_mark_.begin(), repair_mark_.end(), 0u);
    repair_epoch_ = 1;
  }
  changed_ranks_.clear();
  const bool had_rebuild = membership_dirty_;
  if (had_rebuild) structural_rebuild();
  if (repair_mark_.size() < cache_.size()) repair_mark_.resize(cache_.size(), 0);
  flush_dirty(speed);
  flush_speed_changes(speed);
  recompute_bucket_done(speed);
  // The canonical-order left fold matches the rebuild strategies' total; it
  // cannot be repaired incrementally in exact FP, but it is O(n) adds over
  // the packed works array.
  total_work_ = 0.0;
  for (const double w : works_) total_work_ += w;
  repair_desc_index(had_rebuild);

  // Build into the recycled snapshot (if the consumer returned one): clearing
  // keeps capacity, so steady-state rounds copy into existing storage instead
  // of growing megabytes of fresh vectors.  Better: when the buffer's
  // generation tag proves it is exactly last round's snapshot and membership
  // did not churn, its chares/bucket layout already match everything that
  // didn't change this round — patch the changed chares and refill only the
  // per-PE sums instead of re-copying O(n) records.
  Stats st = std::move(scratch_stats_);
  scratch_stats_ = Stats{};
  ++snap_gen_;
  // The tag folds this instance's address into the generation so a buffer
  // recycled across LoadDb instances can never pass as "last round's
  // snapshot" by counter coincidence.  (Patching vs full-copying produces
  // identical values, so the address dependence is not observable.)
  const std::uint64_t tag =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this)) *
      0x9e3779b97f4a7c15ull;
  const bool patch = !had_rebuild && scratch_gen_ != 0 &&
                     scratch_gen_ == (tag ^ (snap_gen_ - 1)) &&
                     st.chares.size() == cache_.size();
  scratch_gen_ = 0;
  st.npes = target_pes;
  st.pe_speed = speed;
  StatsAux& aux = st.aux;
  aux.valid = true;
  aux.db_gen = tag ^ snap_gen_;
  aux.total_work = total_work_;
  if (patch) {
    // changed_ranks_ lists every chare rewritten by this round's flush passes
    // (duplicates are harmless); aux.pes/bucket_off/bucket_ranks only change
    // across structural rebuilds, which force the full path.
    ++counters_.patched_copies;
    for (std::uint32_t r : changed_ranks_) st.chares[r] = cache_[r];
    aux.done_all.clear();
    aux.done_nonmig.clear();
    for (const auto& [pe, b] : pe_) {
      (void)pe;
      aux.done_all.push_back(b.done_all);
      aux.done_nonmig.push_back(b.done_nonmig);
    }
  } else {
    st.chares = cache_;
    aux.pes.clear();
    aux.done_all.clear();
    aux.done_nonmig.clear();
    aux.bucket_off.clear();
    aux.bucket_ranks.clear();
    aux.pes.reserve(pe_.size());
    aux.done_all.reserve(pe_.size());
    aux.done_nonmig.reserve(pe_.size());
    aux.bucket_off.reserve(pe_.size() + 1);
    aux.bucket_ranks.reserve(cache_.size());
    aux.bucket_off.push_back(0);
    for (const auto& [pe, b] : pe_) {
      aux.pes.push_back(pe);
      aux.done_all.push_back(b.done_all);
      aux.done_nonmig.push_back(b.done_nonmig);
      aux.bucket_ranks.insert(aux.bucket_ranks.end(), b.ranks.begin(), b.ranks.end());
      aux.bucket_off.push_back(static_cast<std::uint32_t>(aux.bucket_ranks.size()));
    }
  }
  aux.desc_by_work.resize(desc_index_.size());
  for (std::size_t k = 0; k < desc_index_.size(); ++k) aux.desc_by_work[k] = desc_index_[k].rank;
  return st;
}

}  // namespace charm::lb
