// stats::check — validates a `charmlike-stats` file against the schema tables
// the exporter writes from (stats/schema.hpp) and the accounting invariants
// that tie its sections together.

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "stats/schema.hpp"

namespace stats {

namespace {

using json::Value;

struct Fail {
  std::string msg;
};

/// Throws "<where>: <what...>" unless `ok`.
template <class... A>
void expect(bool ok, const std::string& where, const A&... what) {
  if (ok) return;
  std::ostringstream os;
  os.precision(12);
  os << where << ": ";
  (os << ... << what);
  throw Fail{os.str()};
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when `s` is the wire name of a sim::Phase.
bool is_phase_name(const std::string& s) {
  return std::find(sim::kPhaseNames.begin(), sim::kPhaseNames.end(), s) !=
         sim::kPhaseNames.end();
}

/// Relative tolerance `tol`, with a 1e-12 absolute floor for values near 0
/// (virtual times are ~1e-6..1e2 s, so a floor as large as `tol` would hide
/// whole-percent errors).
bool close(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= std::max(tol * std::max(std::fabs(a), std::fabs(b)), 1e-12);
}

std::string at(std::string_view section, std::size_t i) {
  return std::string(section) + "[" + std::to_string(i) + "]";
}

void no_duplicate_keys(const Value& v, const std::string& where) {
  if (v.is_object()) {
    std::set<std::string_view> seen;
    for (const auto& [k, child] : v.object) {
      expect(seen.insert(k).second, where, "duplicate key \"", k, "\"");
      no_duplicate_keys(child, where == "top level" ? k : where + "." + k);
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.array.size(); ++i) no_duplicate_keys(v.array[i], at(where, i));
  }
}

/// `obj` must carry exactly the section's keys in declared order; optional
/// keys may be absent.
const Value& expect_keys(const Value& obj, const Section& s, const std::string& where) {
  expect(obj.is_object(), where, "expected an object");
  std::string want, got;
  for (const SchemaKey& k : s.keys) {
    if (!k.optional || obj.find(std::string(k.name)) != nullptr) want += std::string(k.name) + " ";
  }
  for (const auto& kv : obj.object) got += kv.first + " ";
  expect(want == got, where, "key drift; expected [ ", want, "], got [ ", got, "]");
  return obj;
}

double num(const Value& obj, std::string_view key, const std::string& where,
           double min = -kInf) {
  const Value* v = obj.find(std::string(key));
  expect(v != nullptr && v->is_number(), where, key, ": expected a number");
  expect(v->number >= min, where, key, ": ", v->number, " < ", min);
  return v->number;
}

void at_least(const Value& obj, const std::string& where,
              std::initializer_list<std::pair<const char*, double>> mins) {
  for (const auto& [key, min] : mins) num(obj, key, where, min);
}

const std::vector<Value>& arr(const Value& obj, std::string_view key, const std::string& where) {
  const Value* v = obj.find(std::string(key));
  expect(v != nullptr && v->is_array(), where, key, ": expected an array");
  return v->array;
}

double sum_numbers(const Value& obj, const char* key, const std::string& where) {
  double s = 0;
  for (const Value& x : arr(obj, key, where)) {
    expect(x.is_number(), where, key, ": non-numeric bucket");
    s += x.number;
  }
  return s;
}

/// Checks every row of the array section `s` of `parent` against the
/// declared keys, then runs `f(row, index, where)` on it.
template <class F>
const std::vector<Value>& each_row(const Value& parent, const Section& s, F&& f) {
  const std::vector<Value>& rows = arr(parent, s.name, "top level");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string w = at(s.name, i);
    f(expect_keys(rows[i], s, w), i, w);
  }
  return rows;
}

/// A sweep section: non-empty, and no two cells share an identity.
template <class F>
void each_cell(const Value& doc, const Section& s, F&& f) {
  std::set<std::string> ids;
  const auto& cells = each_row(doc, s, [&](const Value& c, std::size_t, const std::string& w) {
    const std::string id = cell_identity(c, s);
    expect(ids.insert(id).second, w, "duplicate cell (", id, ")");
    f(c, w);
  });
  expect(!cells.empty(), std::string(s.name), "expected a non-empty list");
}

void check_taskbench(const Value& doc) {
  static const std::set<std::string> kPatterns = {"stencil_1d", "fft", "tree", "sweep", "random"};
  each_cell(doc, schema::kTaskbench, [](const Value& c, const std::string& w) {
    const std::string transport = c.str("transport");
    expect(kPatterns.count(c.str("pattern")) == 1, w, "unknown pattern");
    expect(transport == "point" || transport == "tram", w, "transport \"", transport, "\"");
    at_least(c, w, {{"payload_doubles", 0}, {"seed", 0}, {"msgs", 1}, {"bytes", 1}});
    const double npes = num(c, "npes", w, 1), width = num(c, "width", w, 1);
    const double steps = num(c, "steps", w, 1), grain = num(c, "grain", w, 0);
    const double tasks = num(c, "tasks", w, 1), edges = num(c, "edges", w, 0);
    const double makespan = num(c, "makespan", w, 0), ideal = num(c, "ideal", w, 0);
    const double overhead = num(c, "overhead_per_task", w);
    expect(tasks == width * steps, w, "tasks ", tasks, " != width*steps ", width * steps);
    expect(edges <= tasks * std::max(3.0, num(c, "fanout", w, 1) + 1), w, "edge count ", edges,
           " implausible for the graph");
    expect(close(ideal, grain * steps * std::ceil(width / npes), 1e-6), w, "ideal ", ideal,
           " != grain*steps*ceil(width/npes)");
    expect(makespan >= ideal - 1e-12, w, "makespan ", makespan, " < ideal ", ideal);
    expect(makespan <= 0 || close(num(c, "efficiency", w), ideal / makespan, 1e-6), w,
           "efficiency inconsistent with ideal/makespan");
    expect(close(overhead, (makespan - ideal) * npes / tasks, 1e-6), w,
           "overhead_per_task inconsistent");
    expect(overhead >= -1e-12, w, "negative overhead_per_task");
    expect((transport == "tram") == (num(c, "tram_aggregation", w) > 0), w,
           "tram_aggregation does not match transport \"", transport, "\"");
  });
}

void check_collectives(const Value& doc) {
  each_cell(doc, schema::kCollectives, [](const Value& c, const std::string& w) {
    const std::string topology = c.str("topology");
    expect(topology == "flat" || topology == "tree", w, "topology \"", topology, "\"");
    const double arity = num(c, "arity", w, 0);
    expect((topology == "tree") == (arity >= 2), w, "arity ", arity,
           " does not match topology (flat => 0, tree => >= 2)");
    at_least(c, w, {{"elements", 1}, {"payload_doubles", 0}, {"msgs", 1}, {"bytes", 1}});
    const double npes = num(c, "npes", w, 1), rounds = num(c, "rounds", w, 1);
    const double partials = num(c, "partial_sends", w, 0);
    if (topology == "flat" || npes == 1) {
      expect(partials == 0, w, "partial_sends ", partials, " under flat topology");
    } else {
      expect(partials >= rounds, w, "tree topology with ", partials, " partial_sends over ",
             rounds, " rounds");
    }
    const double makespan = num(c, "makespan", w, 0);
    expect(makespan > 0, w, "makespan must be positive");
    const double tpr = num(c, "time_per_round", w, 0);
    expect(close(tpr, makespan / rounds, 1e-6), w, "time_per_round ", tpr, " != makespan/rounds");
  });
}

void check_metrics(const Value& doc) {
  const double interval = num(doc, "metrics_interval", "top level");
  expect(interval > 0, "top level", "metrics_interval ", interval, " not positive");
  static const char* const kCumulative[] = {"busy",  "exec",      "execs",     "msgs",
                                            "bytes", "coll_msgs", "coll_bytes"};
  const Value* prev = nullptr;
  each_row(doc, schema::kTimeseries, [&](const Value& s, std::size_t i, const std::string& w) {
    // Sample times are exact multiples of the interval, hence strictly
    // increasing; allow FP slack on the multiple itself.
    const double t = num(s, "t", w, 0);
    expect(close(t, interval * static_cast<double>(i + 1)), w, "t ", t, " != interval*", i + 1);
    expect(prev == nullptr || t > prev->num("t"), w, "t not strictly increasing");
    const double busy_max = num(s, "busy_max", w, 0), busy_avg = num(s, "busy_avg", w, 0);
    const double lambda = num(s, "lambda", w, 0);
    expect(busy_max >= busy_avg - 1e-12, w, "busy_max < busy_avg");
    expect(lambda == 0 || lambda >= 1 - 1e-9, w, "lambda ", lambda, " (must be 0 or >= 1)");
    expect(busy_avg <= 0 || close(lambda, busy_max / busy_avg), w,
           "lambda inconsistent with busy_max/busy_avg");
    for (const char* key : kCumulative) {
      const double v = num(s, key, w, 0);
      expect(prev == nullptr || v >= prev->num(key), w, key, ": cumulative counter decreased");
    }
    expect(s.num("coll_msgs") <= s.num("msgs"), w, "coll_msgs > msgs");
    expect(s.num("coll_bytes") <= s.num("bytes"), w, "coll_bytes > bytes");
    // Rates are the window deltas over the interval.
    const double prev_msgs = prev != nullptr ? prev->num("msgs") : 0;
    const double prev_bytes = prev != nullptr ? prev->num("bytes") : 0;
    expect(close(num(s, "msg_rate", w), (s.num("msgs") - prev_msgs) / interval), w,
           "msg_rate inconsistent with the msgs window delta");
    expect(close(num(s, "byte_rate", w), (s.num("bytes") - prev_bytes) / interval), w,
           "byte_rate inconsistent with the bytes window delta");
    // Watermarks dominate the instantaneous depths at the boundary.
    expect(num(s, "ready_hwm", w, 0) >= num(s, "ready", w, 0), w, "ready_hwm < ready");
    expect(num(s, "evq_hwm", w, 0) >= num(s, "evq", w, 0), w, "evq_hwm < evq");
    prev = &s;
  });
  double prev_t = 0;
  each_row(doc, schema::kJournal, [&](const Value& e, std::size_t, const std::string& w) {
    const double t = num(e, "t", w, 0);
    expect(t >= prev_t, w, "t ", t, " out of order");
    prev_t = t;
    expect(is_phase_name(e.str("kind")), w, "unknown kind \"", e.str("kind"), "\"");
    at_least(e, w, {{"aux", -kInf}, {"value", -kInf}});
  });
}

void check_doc(const std::string& raw, const Value& doc) {
  // Canonical byte form: catches accidental pretty-printing or trailing
  // whitespace.
  expect(raw.size() >= 2 && raw.compare(raw.size() - 2, 2, "}\n") == 0, "byte form",
         "file must end with '}' + newline");
  expect(raw.find('\n') == raw.size() - 1, "byte form", "body must be a single line");
  expect(doc.is_object(), "top level", "expected an object");
  expect(doc.str("schema") == kSchemaName, "top level", "schema is not ", kSchemaName);
  no_duplicate_keys(doc, "top level");
  expect_keys(doc, schema::kTop, "top level");
  const bool metrics = doc.find("timeseries") != nullptr;
  expect(metrics == (doc.find("metrics_interval") != nullptr) &&
             metrics == (doc.find("journal") != nullptr),
         "top level", "metrics_interval, timeseries and journal appear together");
  expect(num(doc, "version", "top level") == kSchemaVersion, "top level", "version is not ",
         kSchemaVersion);
  expect(!doc.str("bench").empty(), "top level", "bench: empty");
  expect(doc.find("smoke")->type == Value::Type::kBool, "top level", "smoke: expected a bool");
  const double npes = num(doc, "npes", "top level", 1);
  const double makespan = num(doc, "makespan", "top level", 0);
  num(doc, "events", "top level", 1);

  const auto is_num = [](const Value& v) { return v.is_number(); };
  each_row(doc, schema::kSeries, [&](const Value& table, std::size_t, const std::string& w) {
    const std::size_t ncols = arr(table, "columns", w).size();
    // A table that a bench printed but never recorded reads as evidence of
    // nothing.
    expect(!arr(table, "rows", w).empty(), w, "no rows");
    for (const Value& row : arr(table, "rows", w)) {
      expect(row.is_array() && std::all_of(row.array.begin(), row.array.end(), is_num), w,
             "expected number rows");
      expect(ncols == 0 || row.array.size() == ncols, w, row.array.size(), " values for ",
             ncols, " columns");
    }
  });
  for (const Value& n : arr(doc, "notes", "top level")) expect(n.is_string(), "notes", "non-string");
  if (doc.find("taskbench") != nullptr) check_taskbench(doc);
  if (doc.find("collectives") != nullptr) check_collectives(doc);
  if (metrics) check_metrics(doc);

  const Value& totals = expect_keys(*doc.find("totals"), schema::kTotals, "totals");
  const double t_busy = num(totals, "busy", "totals", 0);
  const double t_exec = num(totals, "exec", "totals", 0);
  const double t_execs = num(totals, "execs", "totals", 1);

  double sum_busy = 0, sum_exec = 0, sum_execs = 0;
  std::vector<double> msgs_sent, bytes_sent;
  const auto& pes = each_row(doc, schema::kPes, [&](const Value& p, std::size_t i,
                                                    const std::string& w) {
    expect(num(p, "pe", w) == static_cast<double>(i), w, "out of order");
    const double busy = num(p, "busy", w, 0), exec = num(p, "exec", w, 0);
    sum_busy += busy;
    sum_exec += exec;
    sum_execs += num(p, "execs", w, 0);
    expect(close(num(p, "overhead", w), exec - busy), w, "overhead != exec - busy");
    msgs_sent.push_back(num(p, "msgs_sent", w, 0));
    bytes_sent.push_back(num(p, "bytes_sent", w, 0));
  });
  expect(static_cast<double>(pes.size()) == npes, "pes", pes.size(), " rows for npes=", npes);
  expect(close(sum_busy, t_busy), "pes", "sum(busy)=", sum_busy, " != totals.busy=", t_busy);
  expect(close(sum_exec, t_exec), "pes", "sum(exec)=", sum_exec, " != totals.exec=", t_exec);
  expect(sum_execs == t_execs, "pes", "sum(execs)=", sum_execs, " != totals.execs=", t_execs);

  double entry_busy = 0, entry_exec = 0, entry_calls = 0;
  each_row(doc, schema::kEntries, [&](const Value& e, std::size_t, const std::string& w) {
    expect(!e.str("name").empty(), w, "name: empty");
    entry_busy += num(e, "busy", w, 0);
    entry_exec += num(e, "exec", w, 0);
    const double calls = num(e, "calls", w, 0);
    if (num(e, "col", w) >= 0) entry_calls += calls;
    expect(num(e, "grain_min", w) <= num(e, "grain_max", w) + 1e-12, w,
           "grain_min > grain_max");
  });
  expect(close(entry_busy, t_busy), "entries", "sum(busy)=", entry_busy,
         " != totals.busy=", t_busy);
  expect(close(entry_exec, t_exec), "entries", "sum(exec)=", entry_exec,
         " != totals.exec=", t_exec);

  const Value& comm = expect_keys(*doc.find("comm"), schema::kComm, "comm");
  const double sends = num(comm, "sends", "comm", 0);
  for (const char* hist : {"size_log2", "hops_log2"}) {
    const double total = sum_numbers(comm, hist, "comm");
    expect(total == sends, "comm", hist, ": bucket total ", total, " != sends ", sends);
  }
  // One entry_ns_log2 sample per entry-method span; the synthetic runtime
  // rows (col -1) count exec spans that ran no entry method.
  const double entry_samples = sum_numbers(comm, "entry_ns_log2", "comm");
  expect(entry_samples == entry_calls, "comm", "entry_ns_log2: bucket total ", entry_samples,
         " != sum(entries.calls over col >= 0) ", entry_calls);
  std::vector<double> row_msgs(pes.size()), row_bytes(pes.size());
  double cell_bytes = 0;
  const std::vector<Value>& cells = arr(comm, "cells", "comm");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::vector<Value>& c = cells[i].array;
    const std::string w = at("comm.cells", i);
    expect(c.size() == 4 && std::all_of(c.begin(), c.end(), is_num), w,
           "expected [src, dst, msgs, bytes]");
    expect(c[0].number >= 0 && c[0].number < npes && c[1].number >= 0 && c[1].number < npes, w,
           "PE out of range");
    row_msgs[static_cast<std::size_t>(c[0].number)] += c[2].number;
    row_bytes[static_cast<std::size_t>(c[0].number)] += c[3].number;
    cell_bytes += c[3].number;
  }
  for (std::size_t i = 0; i < pes.size(); ++i) {
    expect(row_msgs[i] == msgs_sent[i], "comm", "row ", i, ": ", row_msgs[i],
           " msgs != pes[", i, "].msgs_sent ", msgs_sent[i]);
    expect(row_bytes[i] == bytes_sent[i], "comm", "row ", i, ": ", row_bytes[i],
           " bytes != pes[", i, "].bytes_sent ", bytes_sent[i]);
  }
  expect(cell_bytes == num(comm, "bytes", "comm"), "comm", "sum(cells.bytes)=", cell_bytes,
         " != comm.bytes");

  expect_keys(*doc.find("imbalance"), schema::kImbalance, "imbalance");
  double prev_t1 = 0;
  const auto& phases = each_row(doc, schema::kPhases, [&](const Value& ph, std::size_t i,
                                                          const std::string& w) {
    expect_keys(*ph.find("imbalance"), schema::kImbalance, w + ".imbalance");
    expect(i == 0 || close(num(ph, "t0", w), prev_t1), w, "gap after previous phase");
    // A segment is named by the phase span that opened it; the first one is
    // "start", or "run" when no phase cut the run.
    const std::string name = ph.str("name");
    expect(i == 0 ? name == "start" || name == "run" : is_phase_name(name), w,
           "unknown phase name \"", name, "\"");
    prev_t1 = num(ph, "t1", w);
  });
  expect(!phases.empty(), "phases", "empty");
  expect(close(num(phases.front(), "t0", "phases"), 0), "phases", "phases[0].t0 != 0");
  expect(close(num(phases.back(), "t1", "phases"), makespan), "phases",
         "last t1 != makespan ", makespan);

  const Value& cp = expect_keys(*doc.find("critical_path"), schema::kCriticalPath, "critical_path");
  const double length = num(cp, "length", "critical_path", 0);
  expect(length <= makespan + 1e-9, "critical_path", "length ", length, " > makespan ",
         makespan);
  expect(close(num(cp, "work", "critical_path") + num(cp, "comm", "critical_path"), length),
         "critical_path", "work + comm != length");
  expect(makespan <= 0 ||
             close(num(cp, "makespan_ratio", "critical_path"), length / makespan, 1e-6),
         "critical_path", "makespan_ratio inconsistent");
}

}  // namespace

std::string cell_identity(const Value& cell, const Section& sweep) {
  std::string id;
  for (std::size_t i = 0; i < sweep.identity; ++i) {
    const Value* v = cell.find(std::string(sweep.keys[i].name));
    if (!id.empty()) id += ' ';
    id += v == nullptr ? "?" : v->is_string() ? v->string : json::format_double(v->number);
  }
  return id;
}

bool check(const std::string& text, std::string* err) {
  Value doc;
  std::string parse_err;
  if (!json::parse(text, doc, &parse_err)) {
    if (err != nullptr) *err = "parse error: " + parse_err;
    return false;
  }
  try {
    check_doc(text, doc);
  } catch (const Fail& f) {
    if (err != nullptr) *err = f.msg;
    return false;
  }
  return true;
}

}  // namespace stats
