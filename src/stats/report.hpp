#pragma once
// Post-mortem performance analytics over a trace log: the Projections-style
// views the paper's evaluation is built from (usage profiles, communication
// matrices, load-imbalance and phase breakdowns, time profiles).  Everything
// here is derived from the tracer's event stream after the run — collection
// charges zero virtual time by construction, and the same event log always
// produces the same Report, so stats output is as deterministic as the
// simulation itself.
//
// The three consumers are the figure benches (--stats=FILE JSON emission),
// `tools/statsview` (human-readable reports and A-vs-B regression diffs), and
// the test suite's invariant checks.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace stats {

/// log2 histogram: bucket i counts values v with bit_width(v) == i, i.e.
/// bucket 0 holds v == 0 and bucket i >= 1 holds v in [2^(i-1), 2^i).
struct Histogram {
  std::vector<std::uint64_t> buckets;
  std::uint64_t total = 0;

  void add(std::uint64_t v);
  std::uint64_t count(std::size_t bucket) const {
    return bucket < buckets.size() ? buckets[bucket] : 0;
  }
};

/// One row of the Projections "usage profile": per (PE, collection, entry
/// method).  The synthetic key (col, ep) == (-1, -1) accumulates handler
/// executions that ran no entry method at all (pure runtime work: broadcast
/// forwarding, reduction combines, control traffic).
struct EntryUsage {
  int pe = -1;
  int col = -1;
  int ep = -1;
  std::uint64_t calls = 0;
  double busy = 0;       ///< Σ entry-span durations (application work)
  double exec = 0;       ///< attributed share of the containing exec spans
  double grain_min = 0;  ///< shortest single invocation
  double grain_max = 0;  ///< longest single invocation
  double overhead() const { return exec - busy; }
  double grain_avg() const { return calls ? busy / static_cast<double>(calls) : 0; }
};

/// Per-PE busy/exec/idle breakdown plus message totals.
struct PeUsage {
  std::uint64_t execs = 0;
  double busy = 0;   ///< time inside entry methods
  double exec = 0;   ///< total handler-execution time (busy ⊆ exec)
  double idle = 0;   ///< makespan − exec (includes post-completion tail)
  double queue_wait = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  double overhead() const { return exec - busy; }
};

/// One nonzero cell of the PE×PE communication matrix.
struct CommCell {
  int src = -1;
  int dst = -1;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

struct MessageStats {
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hops = 0;
  double total_latency = 0;
  double max_latency = 0;
  double total_queue_wait = 0;
  Histogram size_log2;  ///< message payload bytes
  Histogram hops_log2;  ///< torus hops per message
};

/// max/avg/σ of per-PE busy time over an interval.  `ratio` is the classic
/// imbalance metric λ = max/avg (1.0 = perfectly balanced, 0 when idle).
struct ImbalanceStats {
  double busy_max = 0;
  double busy_avg = 0;
  double busy_sigma = 0;
  double ratio = 0;
};

/// One phase segment: the run is cut at the end of every recorded phase span
/// (LB step, checkpoint, restore, failure); with no phase events the whole
/// run is a single "run" segment.
struct PhaseStats {
  std::string name;  ///< phase span that *opened* this segment ("start" for the first)
  double t0 = 0;
  double t1 = 0;
  double busy = 0;  ///< Σ over PEs, clipped to [t0, t1)
  double exec = 0;
  double idle = 0;  ///< npes * (t1 - t0) − exec
  ImbalanceStats imbalance;
};

/// Longest-path estimate over the send→execute dependency DAG: each handler
/// execution depends on the message that triggered it, each message on the
/// point within its sender's execution where the send happened.  PE resource
/// serialization is deliberately *not* an edge, so `length` is the inherent
/// dependency chain — the floor no amount of PEs can beat — and
/// length ≤ makespan always holds.
struct CriticalPathStats {
  double length = 0;            ///< work + comm along the longest chain
  double work = 0;              ///< execution time on the chain
  double comm = 0;              ///< network latency on the chain
  std::uint64_t nodes = 0;      ///< exec spans on the chain
  std::uint64_t edges_matched = 0;  ///< sends matched to a triggering exec (diagnostic)
};

struct Report {
  int npes = 0;
  double makespan = 0;          ///< last exec-span end
  std::uint64_t events = 0;     ///< trace events consumed
  std::vector<PeUsage> pes;     ///< indexed by PE
  std::vector<EntryUsage> entries;  ///< sorted by (col, ep, pe)
  std::vector<CommCell> comm;       ///< nonzero cells, sorted by (src, dst)
  MessageStats messages;
  Histogram entry_ns_log2;      ///< entry-method durations in nanoseconds
  ImbalanceStats imbalance;     ///< whole-run
  std::vector<PhaseStats> phases;
  CriticalPathStats critical_path;

  double total_busy() const;
  double total_exec() const;
  std::uint64_t total_execs() const;
};

/// Builds the full report from a trace log.  Deterministic: same events, same
/// npes ⇒ identical Report (including double-for-double accumulation order).
Report collect(const std::vector<trace::Event>& events, int npes);

inline Report collect(const trace::Tracer& tracer, int npes) {
  return collect(tracer.events(), npes);
}

/// One interval of Projections' "time profile" view (the paper's Fig 11).
/// Fractions are of the bin width, so busy + overhead + idle == 1.
struct ProfileBin {
  double busy = 0;      ///< fraction of the bin inside entry methods
  double overhead = 0;  ///< fraction executing but outside entry methods
  double idle = 0;      ///< fraction with no handler running
};

struct TimeProfile {
  double t0 = 0;         ///< profile start (virtual seconds)
  double t1 = 0;         ///< profile end (virtual seconds)
  double bin_width = 0;  ///< (t1 - t0) / nbins
  int nbins = 0;
  int npes = 0;
  std::vector<ProfileBin> pe_bins;  ///< [pe * nbins + bin]
  std::vector<ProfileBin> mean;     ///< per-bin average over PEs

  const ProfileBin& at(int pe, int bin) const {
    return pe_bins[static_cast<std::size_t>(pe) * static_cast<std::size_t>(nbins) +
                   static_cast<std::size_t>(bin)];
  }
};

/// Bins each PE's virtual time [0, t_end) into `nbins` equal intervals with
/// the same window fold that builds collect()'s phase table, so a PE's
/// Σ busy·bin_width and Σ (busy + overhead)·bin_width are its PeUsage busy
/// and exec (per bin, exec is clamped to the bin width and busy to exec).
/// `t_end` < 0 means "until the last exec span ends" (1.0 for a log without
/// one); spans past an explicit `t_end` are cut off.
TimeProfile time_profile(const std::vector<trace::Event>& events, int npes, int nbins,
                         double t_end = -1.0);

}  // namespace stats
