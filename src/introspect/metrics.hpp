#pragma once
// Live introspection (DESIGN.md §11): an online metrics monitor that keeps
// incremental counters on the emulator's hot path and snapshots them at a
// configurable virtual-time cadence with ZERO virtual-time perturbation.
//
// The Monitor is one sink of the machine's observer vocabulary
// (sim/observer.hpp), beside the tracer.  Every hook is a plain counter
// update that never calls charge(), and sampling rides the existing
// Machine::step boundaries — the sampler injects NO events of its own, so
// the event order, every virtual clock, and every figure series are
// bit-identical with metrics on or off.  The journal keeps every phase fact,
// as the tracer does.
//
// What it exports is a timeline: fixed-size POD samples recorded at
// t = k·interval, plus a decision journal of LB rounds, FT checkpoints/
// rollbacks, failures and malleability reconfigurations on the same clock,
// written as the byte-deterministic "timeseries"/"journal" stats sections.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/observer.hpp"
#include "sim/paged_table.hpp"

namespace introspect {

/// One decision-journal row, tagged onto the sample timeline (field meanings
/// per sim::Phase; `kind` prints as sim::phase_name).
struct JournalEvent {
  double t = 0;
  sim::Phase kind{};
  int aux = 0;
  double value = 0;
};

/// One timeline sample.  Fixed-size POD: recording one writes these fields
/// and touches nothing else, so steady-state sampling is allocation-free
/// (gated by the operator-new-counting test).  Cumulative fields are
/// since-attach totals, with `busy` counting entry-method and `exec` handler
/// virtual time as the post-mortem stats::PeUsage does; `*_hwm` are high
/// watermarks over the sample window; rates are window deltas divided by the
/// interval.
struct Sample {
  double t = 0;
  double busy_max = 0;
  double busy_avg = 0;
  double lambda = 0;  ///< busy_max / busy_avg (0 while nothing ran)
  double busy = 0;
  double exec = 0;
  std::uint64_t execs = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t coll_msgs = 0;
  std::uint64_t coll_bytes = 0;
  double msg_rate = 0;
  double byte_rate = 0;
  std::uint64_t ready = 0;      ///< total ready depth at the sample boundary
  std::uint64_t ready_hwm = 0;  ///< max total ready depth in the window
  std::uint64_t evq = 0;        ///< global event-queue depth at the boundary
  std::uint64_t evq_hwm = 0;    ///< max event-queue depth in the window
};

class Monitor : public sim::Observer {
 public:
  // ---- lifecycle -------------------------------------------------------

  /// Attaches to `m` (detaching from any previous machine) and resets all
  /// counters, samples, and journal entries.
  void attach(sim::Machine& m);
  void detach();

  /// Sampling cadence in virtual seconds; 0 records the journal only.  Takes
  /// effect from the next attach()/now, with boundaries always at exact
  /// multiples of the interval.
  void set_interval(double dt);
  double interval() const { return interval_; }

  // ---- exported views ----------------------------------------------------

  /// Virtual time of the most recent machine step.
  double time() const { return last_time_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<JournalEvent>& journal_events() const { return journal_; }
  /// Sample boundaries not recorded because the buffer hit kSampleCap
  /// (saturating at UINT64_MAX).
  std::uint64_t dropped_samples() const { return dropped_samples_; }

  // ---- observer hooks --------------------------------------------------
  // None of these charge virtual time; all are O(1) except the snapshot
  // scan (O(P), only at a crossed sample boundary).

  void on_send(int, int, std::size_t bytes, int, double, double) override {
    ++msgs_;
    bytes_ += bytes;
  }
  void on_collective(std::size_t bytes) override {
    ++coll_msgs_;
    coll_bytes_ += bytes;
  }
  void on_ready(int pe, std::size_t depth) override { note_ready(pe, depth); }
  /// end - begin is the exact expression post-mortem stats derive from the
  /// trace span, so live exec totals reconcile bit-exactly.
  void on_exec_end(int pe, double begin, double end, std::size_t,
                   std::size_t depth) override {
    exec_ += end - begin;
    ++execs_;
    note_ready(pe, depth);
  }
  void on_entry(int pe, int, int, double, double dt) override {
    pes_.ref(static_cast<std::size_t>(pe)).busy += dt;
    busy_ += dt;
  }
  void on_phase(const sim::PhaseEvent& ev) override {
    journal_.push_back(JournalEvent{ev.end, ev.kind, ev.aux, ev.value});
  }
  /// End of every Machine::step: refresh event-queue depth and record any
  /// crossed sample boundaries (timestamps are exact multiples of the
  /// interval, so the timeline is monotone and byte-deterministic).
  void on_step(double now, std::size_t evq_depth) override {
    last_time_ = now;
    last_evq_ = evq_depth;
    if (evq_depth > evq_hwm_w_) evq_hwm_w_ = evq_depth;
    if (interval_ > 0 && now >= next_boundary_) sample_up_to(now);
  }

  static constexpr std::size_t kSampleReserve = 4096;
  static constexpr std::size_t kSampleCap = 1u << 17;

 private:
  /// The per-PE state a Sample folds: entry busy time for busy_max/λ and the
  /// ready depth whose change updates the total.
  struct PeCounters {
    double busy = 0;
    std::uint32_t ready = 0;
  };

  void reset(int npes);
  void note_ready(int pe, std::size_t depth) {
    PeCounters& pc = pes_.ref(static_cast<std::size_t>(pe));
    const std::uint32_t d = static_cast<std::uint32_t>(depth);
    cur_ready_ += d;
    cur_ready_ -= pc.ready;
    pc.ready = d;
    if (cur_ready_ > ready_hwm_w_) ready_hwm_w_ = cur_ready_;
  }
  void sample_up_to(double now);
  void record_sample(double t);
  void drop_boundaries_up_to(double now);
  void start_window();
  /// Max and average (over the configured P) of cumulative per-PE busy.
  struct BusyFold {
    double max = 0;
    double avg = 0;
  };
  BusyFold busy_fold() const;

  double interval_ = 0;
  double next_boundary_ = 0;
  std::uint64_t sample_k_ = 0;

  /// Per-PE counters, paged on first touch: the Monitor's footprint follows
  /// the live touched-PE population, not the configured P (DESIGN.md §12).
  sim::PagedTable<PeCounters> pes_;
  double busy_ = 0;
  double exec_ = 0;
  std::uint64_t execs_ = 0;
  std::uint64_t msgs_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t coll_msgs_ = 0;
  std::uint64_t coll_bytes_ = 0;
  std::uint64_t last_msgs_ = 0;   ///< window baselines for the rate fields
  std::uint64_t last_bytes_ = 0;
  std::uint64_t cur_ready_ = 0;
  std::uint64_t ready_hwm_w_ = 0;
  std::uint64_t last_evq_ = 0;
  std::uint64_t evq_hwm_w_ = 0;
  double last_time_ = 0;

  std::vector<Sample> samples_;
  std::uint64_t dropped_samples_ = 0;
  std::vector<JournalEvent> journal_;
};

}  // namespace introspect
