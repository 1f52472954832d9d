// statsview: human-readable reports and A-vs-B regression diffs over the
// `BENCH_<fig>.json` analytics files the benches emit with --stats=FILE
// (schema "charmlike-stats", DESIGN.md §6).
//
//   statsview FILE                 report: all present sections, top entry
//                                  methods, imbalance, comm-matrix hotspots,
//                                  sweep cells, critical path
//   statsview BASELINE CANDIDATE   diff; exit 2 when the candidate's makespan
//                                  or a sweep cell's gated key regresses past
//                                  the threshold, or a baseline cell is gone
//   statsview timeline FILE        live-metrics timeline report (--metrics
//                                  runs): sampled λ/rates/queue depths plus
//                                  the decision journal
//   statsview timeline A B         per-sample timeline diff; exit 2 on
//                                  sample-count mismatch or a final-sample
//                                  busy drift past the threshold
//   statsview check FILE...        validate each file; exit 1 if any fails
//   --top=N          rows per ranking (default 10)
//   --threshold=PCT  regression gate for the diff modes (default 5)
//
// Every mode runs stats::check on its inputs first and exits 1 naming the
// file and failing section.  Sweep sections are handled generically from
// their schema declaration: cells match by identity keys and the diff gates
// on the declared key.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats/json.hpp"
#include "stats/schema.hpp"

namespace {

using stats::json::Value;

struct EntryRow {
  int col = -1;
  int ep = -1;
  std::string name;
  std::uint64_t calls = 0;
  double busy = 0;
  double exec = 0;
  double grain_max = 0;
};

struct Doc {
  std::string path;
  Value root;
  double makespan = 0;
  double busy = 0;
  double exec = 0;
  int npes = 0;
  std::vector<EntryRow> entries;  ///< aggregated over PEs, sorted by busy desc
};

/// A key every file that passed stats::check carries.
const Value& get(const Value& v, const char* key) { return *v.find(key); }

/// Reads `path` and runs stats::check on it; reports and returns false when
/// the file cannot be read or fails.
bool read_checked(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "statsview: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  text = ss.str();
  std::string err;
  if (stats::check(text, &err)) return true;
  std::fprintf(stderr, "statsview: %s: %s\n", path.c_str(), err.c_str());
  return false;
}

bool load(const std::string& path, Doc& doc) {
  std::string text;
  if (!read_checked(path, text)) return false;
  stats::json::parse(text, doc.root);
  doc.path = path;
  doc.makespan = doc.root.num("makespan");
  doc.npes = static_cast<int>(doc.root.num("npes"));
  doc.busy = get(doc.root, "totals").num("busy");
  doc.exec = get(doc.root, "totals").num("exec");
  // Aggregate the per-(PE, col, ep) usage rows over PEs.
  std::map<std::pair<int, int>, EntryRow> agg;
  for (const Value& e : get(doc.root, "entries").array) {
    const int col = static_cast<int>(e.num("col"));
    const int ep = static_cast<int>(e.num("ep"));
    EntryRow& r = agg[{col, ep}];
    r.col = col;
    r.ep = ep;
    if (r.name.empty()) r.name = e.str("name");
    r.calls += static_cast<std::uint64_t>(e.num("calls"));
    r.busy += e.num("busy");
    r.exec += e.num("exec");
    r.grain_max = std::max(r.grain_max, e.num("grain_max"));
  }
  doc.entries.reserve(agg.size());
  for (auto& [key, row] : agg) doc.entries.push_back(std::move(row));
  std::sort(doc.entries.begin(), doc.entries.end(), [](const EntryRow& a, const EntryRow& b) {
    if (a.busy != b.busy) return a.busy > b.busy;
    return std::pair(a.col, a.ep) < std::pair(b.col, b.ep);
  });
  return true;
}

double pct(double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0; }

/// One-line inventory of every top-level section, discovered generically from
/// the ordered DOM — a new schema section (e.g. "timeseries") shows up here
/// without statsview needing a special case for it.
void print_sections(const Doc& d) {
  std::string line;
  for (const auto& [key, v] : d.root.object) {
    line += (line.empty() ? "" : ", ") + key;
    if (v.is_array()) line += "[" + std::to_string(v.array.size()) + "]";
    if (v.is_object()) line += "{" + std::to_string(v.object.size()) + "}";
  }
  std::printf("sections: %s\n", line.c_str());
}

// ---- sweep sections (taskbench, collectives), driven by the schema ----------

/// The sweep's cells; empty when the file has no such section.
const std::vector<Value>& sweep_cells(const Doc& d, const stats::Section& s) {
  static const std::vector<Value> kNone;
  const Value* v = d.root.find(std::string(s.name));
  return v != nullptr ? v->array : kNone;
}

/// "pattern/transport/npes/...": the identity keys, named once per table.
std::string identity_keys(const stats::Section& s) {
  std::string out;
  for (std::size_t i = 0; i < s.identity; ++i) {
    out += (i ? "/" : "") + std::string(s.keys[i].name);
  }
  return out;
}

int id_width(const std::vector<Value>& cells, const stats::Section& s) {
  std::size_t w = 4;
  for (const Value& c : cells) w = std::max(w, stats::cell_identity(c, s).size());
  return static_cast<int>(w);
}

/// One row per cell: its identity, then every measured key.
void print_sweep(const Doc& d, const stats::Section& s) {
  const std::vector<Value>& cells = sweep_cells(d, s);
  if (cells.empty()) return;
  const int w = id_width(cells, s);
  std::printf("\n%.*s sweep (%zu cells; cell = %s):\n", static_cast<int>(s.name.size()),
              s.name.data(), cells.size(), identity_keys(s).c_str());
  std::printf("%-*s", w, "cell");
  for (std::size_t k = s.identity; k < s.keys.size(); ++k) {
    const std::string_view key = s.keys[k].name;
    std::printf(" %*.*s", std::max(12, static_cast<int>(key.size())),
                static_cast<int>(key.size()), key.data());
  }
  std::printf("\n");
  for (const Value& c : cells) {
    std::printf("%-*s", w, stats::cell_identity(c, s).c_str());
    for (std::size_t k = s.identity; k < s.keys.size(); ++k) {
      const std::string key(s.keys[k].name);
      std::printf(" %*.6g", std::max(12, static_cast<int>(key.size())), c.num(key));
    }
    std::printf("\n");
  }
}

/// Matches cells by identity and compares the declared gate key; returns
/// the number of cells that regressed past the threshold or went missing
/// from B (a silently shrunk sweep must not pass).
int diff_sweep(const Doc& a, const Doc& b, const stats::Section& s, double threshold_pct) {
  const std::vector<Value>& ca = sweep_cells(a, s);
  const std::vector<Value>& cb = sweep_cells(b, s);
  if (ca.empty() && cb.empty()) return 0;
  const std::string gate(s.gate);
  std::map<std::string, const Value*> in_b;
  for (const Value& c : cb) in_b[stats::cell_identity(c, s)] = &c;
  const int w = std::max(id_width(ca, s), id_width(cb, s));
  std::printf("\n%.*s sweep (%zu vs %zu cells; cell = %s), gated on %s:\n",
              static_cast<int>(s.name.size()), s.name.data(), ca.size(), cb.size(),
              identity_keys(s).c_str(), gate.c_str());
  const int vw = std::max(14, static_cast<int>(gate.size()) + 2);
  std::printf("%-*s %*s %*s %9s\n", w, "cell", vw, ("A_" + gate).c_str(), vw,
              ("B_" + gate).c_str(), "delta%");
  int failures = 0;
  for (const Value& cell : ca) {
    const std::string id = stats::cell_identity(cell, s);
    const double va = cell.num(gate);
    auto it = in_b.find(id);
    if (it == in_b.end()) {
      std::printf("%-*s %*.6g %*s %9s  MISSING\n", w, id.c_str(), vw, va, vw, "-", "-");
      ++failures;
      continue;
    }
    const double vb = it->second->num(gate);
    const double cell_pct = va > 0 ? 100.0 * (vb - va) / va : 0;
    const bool bad = cell_pct > threshold_pct;
    std::printf("%-*s %*.6g %*.6g %+8.2f%%%s\n", w, id.c_str(), vw, va, vw, vb, cell_pct,
                bad ? "  REGRESSION" : "");
    if (bad) ++failures;
    in_b.erase(it);
  }
  for (const Value& cell : cb) {
    const std::string id = stats::cell_identity(cell, s);
    if (in_b.count(id)) {
      std::printf("%-*s %*s %*.6g %9s  NEW\n", w, id.c_str(), vw, "-", vw, cell.num(gate), "-");
    }
  }
  return failures;
}

void print_report(const Doc& d, int top) {
  std::printf("== %s (%s%s) ==\n", d.root.str("bench").c_str(), d.path.c_str(),
              get(d.root, "smoke").boolean ? ", smoke" : "");
  print_sections(d);
  const double span_work = d.makespan * d.npes;
  std::printf("PEs %d | makespan %.6g s | busy %.6g s (%.1f%%) | overhead %.6g s (%.1f%%) | idle %.1f%%\n",
              d.npes, d.makespan, d.busy, pct(d.busy, span_work), d.exec - d.busy,
              pct(d.exec - d.busy, span_work), pct(span_work - d.exec, span_work));

  std::printf("\ntop %d entry methods by busy time:\n", top);
  std::printf("%-36s %10s %12s %7s %12s %12s\n", "entry", "calls", "busy_s", "%busy",
              "grain_avg_s", "grain_max_s");
  int shown = 0;
  for (const EntryRow& e : d.entries) {
    if (shown++ >= top) break;
    std::printf("%-36s %10llu %12.6g %6.1f%% %12.6g %12.6g\n", e.name.c_str(),
                static_cast<unsigned long long>(e.calls), e.busy, pct(e.busy, d.busy),
                e.calls ? e.busy / static_cast<double>(e.calls) : 0, e.grain_max);
  }

  const Value& im = get(d.root, "imbalance");
  std::printf("\nload imbalance: ratio(max/avg) %.3f | busy max %.6g avg %.6g sigma %.6g\n",
              im.num("ratio"), im.num("busy_max"), im.num("busy_avg"), im.num("sigma"));
  if (const Value& phases = get(d.root, "phases"); phases.array.size() > 1) {
    std::printf("phases (%zu):\n", phases.array.size());
    std::printf("  %-12s %12s %12s %8s %8s\n", "opened_by", "t0_s", "len_s", "ratio", "%idle");
    for (const Value& ph : phases.array) {
      const double len = ph.num("t1") - ph.num("t0");
      std::printf("  %-12s %12.6g %12.6g %8.3f %7.1f%%\n", ph.str("name").c_str(),
                  ph.num("t0"), len, get(ph, "imbalance").num("ratio"),
                  pct(ph.num("idle"), len * d.npes));
    }
  }

  const Value& comm = get(d.root, "comm");
  std::printf("\ncommunication: %llu msgs, %llu bytes, mean latency %.3g s\n",
              static_cast<unsigned long long>(comm.num("sends")),
              static_cast<unsigned long long>(comm.num("bytes")),
              comm.num("sends") > 0 ? comm.num("latency_total") / comm.num("sends") : 0);
  std::vector<const Value*> hot;
  for (const Value& c : get(comm, "cells").array) hot.push_back(&c);
  std::sort(hot.begin(), hot.end(), [](const Value* a, const Value* b) {
    if (a->array[3].number != b->array[3].number) return a->array[3].number > b->array[3].number;
    return std::pair(a->array[0].number, a->array[1].number) <
           std::pair(b->array[0].number, b->array[1].number);
  });
  std::printf("top %d comm-matrix cells by bytes (of %zu nonzero):\n", top, hot.size());
  std::printf("  %6s -> %-6s %10s %14s\n", "src", "dst", "msgs", "bytes");
  for (int i = 0; i < top && i < static_cast<int>(hot.size()); ++i) {
    const auto& a = hot[static_cast<std::size_t>(i)]->array;
    std::printf("  %6d -> %-6d %10llu %14llu\n", static_cast<int>(a[0].number),
                static_cast<int>(a[1].number), static_cast<unsigned long long>(a[2].number),
                static_cast<unsigned long long>(a[3].number));
  }

  for (const stats::Section* sweep : stats::schema::kSweeps) print_sweep(d, *sweep);

  if (const Value* ts = d.root.find("timeseries")) {
    std::printf("\nlive metrics: %zu samples every %.6g s (see `statsview timeline %s`)\n",
                ts->array.size(), d.root.num("metrics_interval"), d.path.c_str());
  }

  const Value& cp = get(d.root, "critical_path");
  std::printf("\ncritical path: %.6g s (%.1f%% of makespan) = %.6g work + %.6g comm over %llu execs\n",
              cp.num("length"), 100.0 * cp.num("makespan_ratio"), cp.num("work"), cp.num("comm"),
              static_cast<unsigned long long>(cp.num("nodes")));
}

// ---- timeline report / diff (the "timeseries"/"journal" sections) ------------

const Value* require_timeseries(const Doc& d) {
  const Value* ts = d.root.find("timeseries");
  if (ts == nullptr) {
    std::fprintf(stderr,
                 "statsview: %s has no timeseries section (run the bench with "
                 "--metrics --stats=FILE)\n",
                 d.path.c_str());
    return nullptr;
  }
  return ts;
}

int timeline_report(const Doc& d, int top) {
  const Value* ts = require_timeseries(d);
  if (ts == nullptr) return 1;
  std::printf("== %s timeline (%s) ==\n", d.root.str("bench").c_str(), d.path.c_str());
  const std::size_t n = ts->array.size();
  std::printf("%zu samples every %.6g s over %d PEs\n", n,
              d.root.num("metrics_interval"), d.npes);

  // Bounded table: stride over the samples so long runs stay readable
  // (always including the final sample, the cumulative totals).
  const std::size_t max_rows = static_cast<std::size_t>(top) * 2;
  const std::size_t stride = n > max_rows ? (n + max_rows - 1) / max_rows : 1;
  std::printf("%12s %8s %12s %12s %12s %8s %10s %8s %8s\n", "t_s", "lambda",
              "busy_avg_s", "msg_rate", "byte_rate", "ready", "ready_hwm", "evq",
              "evq_hwm");
  const auto row = [](const Value& s) {
    std::printf("%12.6g %8.3f %12.6g %12.6g %12.6g %8.0f %10.0f %8.0f %8.0f\n", s.num("t"),
                s.num("lambda"), s.num("busy_avg"), s.num("msg_rate"), s.num("byte_rate"),
                s.num("ready"), s.num("ready_hwm"), s.num("evq"), s.num("evq_hwm"));
  };
  for (std::size_t i = 0; i < n; i += stride) row(ts->array[i]);
  if (n > 0 && (n - 1) % stride != 0) row(ts->array[n - 1]);

  const Value& journal = get(d.root, "journal");
  std::printf("\ndecision journal (%zu events):\n", journal.array.size());
  std::printf("%12s %-12s %8s %14s\n", "t_s", "kind", "aux", "value");
  for (const Value& e : journal.array) {
    std::printf("%12.6g %-12s %8.0f %14.6g\n", e.num("t"), e.str("kind").c_str(), e.num("aux"),
                e.num("value"));
  }
  return 0;
}

int timeline_diff(const Doc& a, const Doc& b, int top, double threshold_pct) {
  const Value* tsa = require_timeseries(a);
  const Value* tsb = require_timeseries(b);
  if (tsa == nullptr || tsb == nullptr) return 1;
  std::printf("== statsview timeline diff: %s (A) vs %s (B) ==\n", a.path.c_str(),
              b.path.c_str());
  std::printf("samples: A %zu, B %zu | interval: A %.6g s, B %.6g s\n",
              tsa->array.size(), tsb->array.size(), a.root.num("metrics_interval"),
              b.root.num("metrics_interval"));
  if (tsa->array.size() != tsb->array.size()) {
    std::printf("\nREGRESSION: sample counts differ — the runs cover different "
                "virtual-time spans\n");
    return 2;
  }
  if (tsa->array.empty()) {
    std::printf("\nOK: both timelines are empty\n");
    return 0;
  }

  // Largest per-sample divergences in cumulative busy and in λ.
  struct Div {
    double t, a_v, b_v;
  };
  Div worst_busy{0, 0, 0}, worst_lambda{0, 0, 0};
  double worst_busy_rel = 0, worst_lambda_abs = 0;
  for (std::size_t i = 0; i < tsa->array.size(); ++i) {
    const Value& sa = tsa->array[i];
    const Value& sb = tsb->array[i];
    const double ba = sa.num("busy"), bb = sb.num("busy");
    const double rel = ba != 0 ? std::fabs(bb - ba) / std::fabs(ba)
                               : (bb != 0 ? 1.0 : 0.0);
    if (rel >= worst_busy_rel) {
      worst_busy_rel = rel;
      worst_busy = Div{sa.num("t"), ba, bb};
    }
    const double la = sa.num("lambda"), lb = sb.num("lambda");
    if (std::fabs(lb - la) >= worst_lambda_abs) {
      worst_lambda_abs = std::fabs(lb - la);
      worst_lambda = Div{sa.num("t"), la, lb};
    }
  }
  std::printf("largest busy divergence: %+.3g%% at t=%.6g (A %.6g, B %.6g)\n",
              100.0 * worst_busy_rel, worst_busy.t, worst_busy.a_v, worst_busy.b_v);
  std::printf("largest lambda divergence: %+.4f at t=%.6g (A %.3f, B %.3f)\n",
              worst_lambda_abs, worst_lambda.t, worst_lambda.a_v, worst_lambda.b_v);

  const std::size_t n = tsa->array.size();
  const std::size_t max_rows = static_cast<std::size_t>(top);
  const std::size_t stride = n > max_rows ? (n + max_rows - 1) / max_rows : 1;
  std::printf("\n%12s %10s %10s %12s %12s\n", "t_s", "A_lambda", "B_lambda",
              "A_busy_s", "B_busy_s");
  for (std::size_t i = 0; i < n; i += stride) {
    const Value& sa = tsa->array[i];
    const Value& sb = tsb->array[i];
    std::printf("%12.6g %10.3f %10.3f %12.6g %12.6g\n", sa.num("t"),
                sa.num("lambda"), sb.num("lambda"), sa.num("busy"), sb.num("busy"));
  }

  const Value& fa = tsa->array[n - 1];
  const Value& fb = tsb->array[n - 1];
  const double final_pct = fa.num("busy") != 0
                               ? 100.0 * (fb.num("busy") - fa.num("busy")) / fa.num("busy")
                               : (fb.num("busy") != 0 ? 100.0 : 0.0);
  if (std::fabs(final_pct) > threshold_pct) {
    std::printf("\nREGRESSION: final-sample cumulative busy drifted %+.2f%% "
                "(threshold %.2f%%)\n",
                final_pct, threshold_pct);
    return 2;
  }
  std::printf("\nOK: final-sample busy delta %+.2f%% within the %.2f%% threshold\n",
              final_pct, threshold_pct);
  return 0;
}

void print_delta(const char* label, double a, double b) {
  const double d = b - a;
  std::printf("%-22s %14.6g %14.6g %+13.6g %s%.2f%%\n", label, a, b, d, d >= 0 ? "+" : "",
              a != 0 ? 100.0 * d / a : 0.0);
}

int diff(const Doc& a, const Doc& b, int top, double threshold_pct) {
  std::printf("== statsview diff: %s (A) vs %s (B) ==\n", a.path.c_str(), b.path.c_str());
  std::printf("%-22s %14s %14s %13s %9s\n", "metric", "A", "B", "delta", "delta%");
  print_delta("makespan_s", a.makespan, b.makespan);
  print_delta("busy_s", a.busy, b.busy);
  print_delta("overhead_s", a.exec - a.busy, b.exec - b.busy);
  print_delta("imbalance_ratio", get(a.root, "imbalance").num("ratio"),
              get(b.root, "imbalance").num("ratio"));
  print_delta("critical_path_s", get(a.root, "critical_path").num("length"),
              get(b.root, "critical_path").num("length"));

  // Per-entry busy movers, matched by (col, ep).
  std::map<std::pair<int, int>, std::pair<const EntryRow*, const EntryRow*>> merged;
  for (const EntryRow& e : a.entries) merged[{e.col, e.ep}].first = &e;
  for (const EntryRow& e : b.entries) merged[{e.col, e.ep}].second = &e;
  struct Mover {
    std::string name;
    double a_busy, b_busy;
  };
  std::vector<Mover> movers;
  for (const auto& [key, pair] : merged) {
    const double ab = pair.first != nullptr ? pair.first->busy : 0;
    const double bb = pair.second != nullptr ? pair.second->busy : 0;
    const std::string name = pair.first != nullptr ? pair.first->name : pair.second->name;
    movers.push_back(Mover{name, ab, bb});
  }
  std::sort(movers.begin(), movers.end(), [](const Mover& x, const Mover& y) {
    const double dx = std::fabs(x.b_busy - x.a_busy), dy = std::fabs(y.b_busy - y.a_busy);
    if (dx != dy) return dx > dy;
    return x.name < y.name;
  });
  std::printf("\ntop %d entry-method busy movers:\n", top);
  std::printf("%-36s %14s %14s %14s\n", "entry", "A_busy_s", "B_busy_s", "delta_s");
  for (int i = 0; i < top && i < static_cast<int>(movers.size()); ++i) {
    const Mover& m = movers[static_cast<std::size_t>(i)];
    std::printf("%-36s %14.6g %14.6g %+14.6g\n", m.name.c_str(), m.a_busy, m.b_busy,
                m.b_busy - m.a_busy);
  }

  int failures = 0;
  bool sweeps = false;
  for (const stats::Section* sweep : stats::schema::kSweeps) {
    failures += diff_sweep(a, b, *sweep, threshold_pct);
    sweeps = sweeps || !sweep_cells(a, *sweep).empty();
  }

  const double reg_pct = a.makespan > 0 ? 100.0 * (b.makespan - a.makespan) / a.makespan : 0;
  if (reg_pct > threshold_pct) {
    std::printf("\nREGRESSION: makespan +%.2f%% exceeds the %.2f%% threshold\n", reg_pct,
                threshold_pct);
    return 2;
  }
  if (failures > 0) {
    std::printf("\nREGRESSION: %d sweep cell(s) regressed past %.2f%% or went missing\n",
                failures, threshold_pct);
    return 2;
  }
  std::printf("\nOK: makespan delta %+.2f%% within the %.2f%% threshold%s\n", reg_pct,
              threshold_pct, sweeps ? "; all sweep cells within threshold" : "");
  return 0;
}

int check_files(const std::vector<std::string>& files) {
  int bad = 0;
  for (const std::string& path : files) {
    std::string text;
    if (read_checked(path, text)) {
      std::printf("%s: OK\n", path.c_str());
    } else {
      ++bad;
    }
  }
  return bad > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string mode;
  int top = 10;
  double threshold = 5.0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--top=", 6) == 0 && a[6] != '\0') {
      top = std::atoi(a + 6);
      if (top <= 0) top = 10;
    } else if (std::strncmp(a, "--threshold=", 12) == 0 && a[12] != '\0') {
      threshold = std::strtod(a + 12, nullptr);
    } else if ((std::strcmp(a, "timeline") == 0 || std::strcmp(a, "check") == 0) &&
               files.empty() && mode.empty()) {
      mode = a;
    } else if (a[0] != '-') {
      files.emplace_back(a);
    } else {
      files.clear();
      break;
    }
  }
  if (mode == "check" && !files.empty()) return check_files(files);
  if (files.empty() || files.size() > 2 || mode == "check") {
    std::fprintf(stderr,
                 "usage: statsview [timeline] FILE [FILE2] [--top=N] [--threshold=PCT]\n"
                 "       statsview check FILE...\n"
                 "  one file: report; two: A-vs-B diff (exit 2 when B regresses past\n"
                 "  PCT%%, default 5); timeline: the --metrics timeseries/journal views;\n"
                 "  check: validate each file against the schema (exit 1 on failure)\n");
    return 1;
  }
  Doc a;
  if (!load(files[0], a)) return 1;
  if (files.size() == 1) {
    if (mode == "timeline") return timeline_report(a, top);
    print_report(a, top);
    return 0;
  }
  Doc b;
  if (!load(files[1], b)) return 1;
  if (mode == "timeline") return timeline_diff(a, b, top, threshold);
  return diff(a, b, top, threshold);
}
