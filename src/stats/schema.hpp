#pragma once
// The `charmlike-stats` schema (DESIGN.md §6), declared once.  Each object
// section is one ordered key table: `stats::to_json` writes from it,
// `stats::check` verifies files against it, and `tools/statsview` reads the
// sweep sections through it.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "stats/json.hpp"

namespace stats {

inline constexpr const char* kSchemaName = "charmlike-stats";
inline constexpr int kSchemaVersion = 1;

struct SchemaKey {
  std::string_view name;
  bool optional = false;  ///< top level only: written only when the bench fills it
};

/// One object section: its keys in emission order.  Sweep sections
/// (taskbench, collectives) also name how many leading keys identify a cell
/// and which measured key the regression diff gates on.
struct Section {
  std::string_view name;
  std::span<const SchemaKey> keys;
  std::size_t identity = 0;
  std::string_view gate;
};

namespace schema {
extern const Section kTop, kSeries, kTaskbench, kCollectives, kTimeseries, kJournal, kTotals,
    kPes, kEntries, kComm, kImbalance, kPhases, kCriticalPath;

/// The top-level array sections whose cells are matched by identity.
inline constexpr const Section* kSweeps[] = {&kTaskbench, &kCollectives};
}  // namespace schema

/// The identity keys' values of one sweep cell, space-separated; unique
/// within a valid file.
std::string cell_identity(const json::Value& cell, const Section& sweep);

/// Validates the raw bytes of a `charmlike-stats` file: canonical single-line
/// form, no duplicate keys, every section's declared key order, and the
/// accounting invariants between sections.  On failure returns false and,
/// when `err` is given, fills it with "<section>: <what failed>".
bool check(const std::string& text, std::string* err = nullptr);

}  // namespace stats
