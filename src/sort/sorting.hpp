#pragma once
// Parallel sorting library (§III-G, Fig 7).
//
// Two algorithms over the same per-PE key blocks:
//
//  * hist_sort — Charm++-style asynchronous histogram sort (Solomonik & Kale,
//    IPDPS'10): iterative splitter probing via tree reductions, then an
//    all-to-all exchange and local merge.  Every coordination step is a
//    logarithmic collective; nothing is centralized.
//
//  * merge_sort — the bulk-synchronous "MPI multiway-merge" baseline from the
//    paper's CHARM interop study: every PE ships all its keys to rank 0,
//    rank 0 sorts them and picks splitters, barriers separate each phase.
//    The root sample processing and P point-to-point arrivals at one PE are
//    the scalability bottleneck Fig 7 exposes.
//
// The Library facade doubles as the paper's interop interface function: an
// AMPI program can hand its keys to the charm module, run the async sort,
// and get control back (CharmLibInit-style; see tests/apps/test_sort.cpp).

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/charm.hpp"

namespace charm::sortlib {

/// Modelled cost per comparison-ish operation (s).
inline constexpr double kCmpCost = 3e-9;
/// Histogram probes per hist_sort: each one counts every PE's keys against
/// the current splitters, and the last probed splitters are final.
inline constexpr int kProbeRounds = 3;

struct StartMsg {
  int dummy = 0;
  template <class P>
  void pup(P& p) {
    p | dummy;
  }
};

struct KeysMsg {
  int from = 0;
  std::vector<std::uint64_t> keys;
  template <class P>
  void pup(P& p) {
    p | from;
    p | keys;
  }
};

struct SplitterMsg {
  std::vector<std::uint64_t> splitters;
  template <class P>
  void pup(P& p) {
    p | splitters;
  }
};

class Library;
class Sorter;

namespace detail {
/// Shared driver state for an in-flight sort (root-side probing bookkeeping).
struct SortState {
  CollectionId col = -1;
  int npes = 0;
  Callback done;           ///< user completion callback
  Callback done_internal;  ///< next phase transition

  // Histogram probing (root-side).
  int rounds_left = 0;
  std::vector<std::uint64_t> splitters;
  /// Bracket per splitter: keys <= lo[s] number cum_lo[s], below the
  /// splitter's ideal rank, and keys <= hi[s] number cum_hi[s], at or above it.
  std::vector<std::uint64_t> lo, hi;
  std::vector<double> cum_lo, cum_hi;

  // Baseline sample collection (root-side).
  std::vector<std::uint64_t> samples;
  int sample_chunks = 0;

  GroupProxy<Sorter> proxy() const { return GroupProxy<Sorter>(col); }
};
}  // namespace detail

/// Per-PE sorter: owns this PE's block of keys.
class Sorter : public charm::Group<Sorter> {
 public:
  Sorter() = default;
  explicit Sorter(std::shared_ptr<detail::SortState> state) : state_(std::move(state)) {}

  std::vector<std::uint64_t> keys;

  // histsort phases
  void local_sort(const StartMsg&);
  void count(const SplitterMsg& m);
  void exchange(const SplitterMsg& m);
  void accept(const KeysMsg& m);
  // baseline phases
  void send_samples(const StartMsg&);
  void collect_samples(const KeysMsg& m);  // root only

 private:
  friend class Library;
  void finish_exchange_if_done();

  std::shared_ptr<detail::SortState> state_;
  std::vector<std::vector<std::uint64_t>> incoming_;
  int chunks_received_ = 0;
  bool exchange_sent_ = false;  ///< guards against early-arriving chunks
};

class Library {
 public:
  explicit Library(Runtime& rt);

  /// Deterministically fills each PE's block (keys < 2^48 so double-encoded
  /// reductions stay exact).
  void fill_random(std::uint64_t seed, std::size_t keys_per_pe);

  /// Asynchronous histogram sort; `done` fires when every PE's block is the
  /// sorted slice of the global key set.
  void hist_sort(Callback done);

  /// Bulk-synchronous sample/merge sort baseline with a centralized root.
  void merge_sort(Callback done);

  /// Post-conditions: globally sorted across PE blocks, and no block holds
  /// more than kBalanceTolerance x its ideal share (total keys / PEs) plus
  /// the longest run of one key value, which no splitter can cut.
  bool validate() const;
  static constexpr double kBalanceTolerance = 1.05;
  std::uint64_t total_keys() const;
  const std::vector<std::uint64_t>& keys_on(int pe) const;

  GroupProxy<Sorter> sorters() const { return proxy_; }

 private:
  Runtime& rt_;
  GroupProxy<Sorter> proxy_;
  std::shared_ptr<detail::SortState> state_;
};

}  // namespace charm::sortlib

namespace pup {
template <>
struct MemCopyable<charm::sortlib::StartMsg> : std::true_type {
  static constexpr std::size_t kFieldBytes = sizeof(int);
};
}  // namespace pup
