#pragma once
// Load balancing strategy interface and the built-in strategy suite
// (§III-A of the paper: centralized, distributed and hierarchical schemes).
//
// Strategies see normalized *work* per chare (measured virtual load scaled
// back by the source PE's frequency), plus per-PE speeds, so they remain
// correct under DVFS and heterogeneous-cloud frequency scaling (§III-C, §IV-F).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/index.hpp"
#include "runtime/types.hpp"

namespace charm::lb {

struct ChareInfo {
  CollectionId col = -1;
  ObjIndex idx{};
  int pe = 0;
  double work = 0;  ///< frequency-normalized load since the last LB round
  bool migratable = true;
  std::array<double, 3> coords{};  ///< spatial position (ORB)
};

/// Sparse per-PE frequency map with default 1.0.  Stores only PEs whose speed
/// differs from 1.0, so a million-virtual-PE Stats costs O(DVFS'd PEs), not
/// O(P) (DESIGN.md §12/§13).  Reads are bit-identical to the dense vector the
/// strategies used to index: an absent PE is exactly 1.0.
class SpeedMap {
 public:
  double operator[](std::size_t pe) const {
    // Entries are sorted by PE and few (only non-unit speeds); a short scan
    // beats binary search at typical sizes and is exact either way.
    for (const auto& [p, f] : entries_) {
      if (static_cast<std::size_t>(p) == pe) return f;
      if (static_cast<std::size_t>(p) > pe) break;
    }
    return 1.0;
  }

  /// Records `pe`'s speed (1.0 erases the entry).
  void set(int pe, double f);

  /// Left-fold sum of speeds for PEs [0, npes) — bit-identical to
  /// `std::accumulate` over the dense vector.  Runs of default 1.0 on an
  /// integer-valued accumulator are shortcut (each +1.0 step is exact there);
  /// otherwise the fold steps one PE at a time.
  double sum_first(int npes) const;

  bool operator==(const SpeedMap&) const = default;
  const std::vector<std::pair<int, double>>& entries() const { return entries_; }

 private:
  std::vector<std::pair<int, double>> entries_;  ///< (pe, speed != 1.0), pe ascending
};

/// The index every strategy reads (DESIGN.md §13).  The load database
/// maintains it incrementally and attaches it to each snapshot.  A hand-built
/// Stats (tests, gossip replays) leaves `valid` false, and the strategies
/// index it from scratch with index_of.  Value-copied with the Stats, so a
/// strategy running after the modeled gather delay never references live DB
/// storage.
struct StatsAux {
  bool valid = false;
  double total_work = 0;       ///< canonical-order left-fold over all chares
  /// Database snapshot generation (internal).  LoadDb::recycle uses it to
  /// prove a returned buffer is last round's snapshot, in which case the next
  /// snapshot patches only the chares that changed instead of re-copying all
  /// of them.  Zero for hand-built Stats — those always take the full copy.
  std::uint64_t db_gen = 0;
  std::vector<int> pes;        ///< hosting PEs, ascending
  std::vector<double> done_all;     ///< per hosting PE: sum(work/speed), bucket order
  std::vector<double> done_nonmig;  ///< same, non-migratable chares only
  std::vector<std::uint32_t> bucket_off;    ///< CSR offsets into bucket_ranks (pes.size()+1)
  std::vector<std::uint32_t> bucket_ranks;  ///< chare ranks grouped by PE, canonical within
  std::vector<std::uint32_t> desc_by_work;  ///< migratable ranks, (work desc, rank asc)
};

struct Stats {
  int npes = 0;        ///< active PEs (assignment targets are 0..npes-1), >= 1
  SpeedMap pe_speed;   ///< frequency scale per PE (sparse, default 1.0)
  std::vector<ChareInfo> chares;  ///< canonical (col, idx) order
  StatsAux aux;        ///< maintained index; invalid for hand-built Stats
};

/// Builds `s`'s index from its chare list alone, in the same fold orders the
/// load database maintains (so the result equals a snapshot's aux block,
/// except for db_gen).
StatsAux index_of(const Stats& s);

struct Migration {
  CollectionId col = -1;
  ObjIndex idx{};
  int from = 0;
  int to = 0;
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;
  virtual std::vector<Migration> assign(const Stats& stats) = 0;
};

/// Sort chares by descending work; assign each to the PE with the earliest
/// predicted completion time (work/speed).  O(n log n), ignores current
/// placement (may migrate heavily); the work-order index replaces the sort.
std::unique_ptr<Strategy> make_greedy();

/// Moves chares off overloaded PEs onto underloaded ones until the predicted
/// max is within `tolerance` of the mean; minimizes migrations.  Over a
/// snapshot's index a round costs O(moved log P) on completion heaps instead
/// of O(8 P · objects) full scans.
std::unique_ptr<Strategy> make_refine(double tolerance = 1.05);

/// Two-level hierarchical scheme (HybridLB in the paper): PEs are split into
/// ~sqrt(P) groups; group loads are balanced first, then chares within each
/// group.
std::unique_ptr<Strategy> make_hybrid();

/// Orthogonal recursive bisection over chare spatial coordinates (Barnes-Hut).
std::unique_ptr<Strategy> make_orb();

}  // namespace charm::lb
