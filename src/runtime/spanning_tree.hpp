#pragma once
// k-ary spanning tree over PE ranks, derived locally from arithmetic on the
// rank — no central table, no messages to build it (DESIGN.md §10).
//
// Ranks are *relative* to the root: rel 0 is the root, rel r's parent is
// (r-1)/k and its children are r*k+1 .. r*k+k.  Absolute PE numbers rotate
// around the active-PE ring so any PE can act as root (broadcasts start at
// the calling PE; reductions always root at PE 0, where flat completions
// fire).  Every PE can compute its own parent/children in O(k) — this is the
// structure CharmLite's distributed tree_builder plan points at, and what
// lets collectives cost O(log_k P) messages instead of a flat fan-in.

#include <algorithm>

namespace charm {

struct SpanningTree {
  int npes = 1;   ///< ranks span [0, npes)
  int root = 0;   ///< absolute PE of relative rank 0
  int arity = 2;  ///< k

  constexpr SpanningTree(int npes_, int root_, int arity_)
      : npes(npes_), root(root_), arity(arity_ < 2 ? 2 : arity_) {}

  /// Relative rank of an absolute PE.
  constexpr int rel(int abs_pe) const { return (abs_pe - root + npes) % npes; }
  /// Absolute PE of a relative rank.
  constexpr int abs(int rel_rank) const { return (root + rel_rank) % npes; }

  /// Parent of relative rank r (r > 0).
  constexpr int parent(int r) const { return (r - 1) / arity; }
  /// i-th child (i in [1, arity]) of relative rank r; may be >= npes.
  constexpr long child(int r, int i) const {
    return static_cast<long>(r) * arity + i;
  }
  /// Depth of relative rank r below the root.
  constexpr int depth(int r) const {
    int d = 0;
    while (r > 0) {
      r = parent(r);
      ++d;
    }
    return d;
  }
  /// Height of the whole tree (max depth over all ranks).
  constexpr int height() const { return depth(npes - 1); }
};

}  // namespace charm
