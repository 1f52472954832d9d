#pragma once
// Versioned, byte-deterministic JSON export of a stats::Report — the
// `BENCH_<fig>.json` files that record the perf trajectory.  The schema
// (DESIGN.md §6, declared in stats/schema.hpp) has a fixed key order, sorted
// arrays, and canonical number formatting, so identical runs produce
// identical bytes; CI diffs them and `stats::check` validates them.

#include <functional>
#include <string>
#include <vector>

#include "stats/report.hpp"
#include "stats/schema.hpp"

namespace introspect {
class Monitor;
}

namespace stats {

/// One printed bench table (the series the paper plots).
struct SeriesTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;
};

/// Names a registered entry method ("" when it has none).
using EntryLabeler = std::function<std::string(int col, int ep)>;

/// The one entry-name rule of every export: "runtime" for the synthetic
/// pure-runtime key (col == -1), else `label`'s non-empty name, else
/// "col<c>.apply" for the LB resume broadcast's resume_from_sync deliveries
/// (ep == -1), else "col<c>.ep<e>".
std::string entry_label(const EntryLabeler& label, int col, int ep);

/// One (pattern x grain x P) cell of a taskbench overhead-surface sweep
/// (DESIGN.md §8): achieved vs ideal makespan, the derived per-task
/// overhead, and the cell's traffic.  Identity keys: schema::kTaskbench.
struct TaskbenchCell {
  std::string pattern;    ///< stencil_1d / fft / tree / sweep / random
  std::string transport;  ///< "point" or "tram"
  int npes = 0;
  int width = 0;
  int steps = 0;
  double grain = 0;
  int payload_doubles = 0;
  int fanout = 0;
  std::uint64_t seed = 0;
  std::uint64_t tasks = 0;
  std::uint64_t edges = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double makespan = 0;
  double ideal = 0;
  double efficiency = 0;
  double overhead_per_task = 0;
  double tram_aggregation = 0;
};

/// One cell of the collectives micro-bench sweep (DESIGN.md §10): the cost
/// of a broadcast → contribute → completion round under one topology (time
/// per round, message/byte/partial-send counters).  Identity keys:
/// schema::kCollectives.
struct CollectivesCell {
  std::string topology;   ///< "flat" or "tree"
  int arity = 0;          ///< tree fanout k; 0 under flat
  int npes = 0;
  int elements = 0;
  int rounds = 0;
  int payload_doubles = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t partial_sends = 0;  ///< tree partial-combine messages
  double makespan = 0;
  double time_per_round = 0;
};

struct ExportMeta {
  std::string bench;  ///< binary name, e.g. "fig11_namd_profiles"
  bool smoke = false;
  std::vector<SeriesTable> series;
  std::vector<std::string> notes;
  /// Overhead-surface cells; emitted as a "taskbench" section when non-empty
  /// (only the taskbench bench fills this, so figure JSON is unchanged).
  std::vector<TaskbenchCell> taskbench;
  /// Collective-tree sweep cells; emitted as a "collectives" section when
  /// non-empty (only the collectives bench fills this).
  std::vector<CollectivesCell> collectives;
  /// Live-introspection monitor whose interval, samples and journal are
  /// emitted as "metrics_interval"/"timeseries"/"journal" sections; null
  /// (the default) keeps metrics-off output byte-identical.
  const introspect::Monitor* metrics = nullptr;
  EntryLabeler label;  ///< optional; see entry_label
};

std::string to_json(const Report& r, const ExportMeta& meta);

/// Returns false when the file cannot be written.
bool write_json_file(const Report& r, const ExportMeta& meta, const std::string& path);

}  // namespace stats
