// stats::check and statsview against the checked-in bench_stats/ records:
// every baseline must validate, and every invariant family must reject a
// copy with one value changed or one key renamed, naming the failing
// section.  Every record's header names a bench that exists and the run
// scripts/gate.py reruns, every bench has a smoke record, and a --metrics
// record agrees with its plain run.  The statsview tests drive the built
// binary: sweep cells are matched by identity and gated on the declared key,
// and any input that fails stats::check, or any malformed flag value, exits 1
// in every mode.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/json.hpp"
#include "stats/schema.hpp"

namespace {

using stats::json::Value;
namespace fs = std::filesystem;

const fs::path kStatsDir = fs::path(CHARMLIKE_SOURCE_DIR) / "bench_stats";

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

void dump(const Value& v, std::string& out) {
  switch (v.type) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += v.boolean ? "true" : "false"; break;
    case Value::Type::kNumber: out += stats::json::format_double(v.number); break;
    case Value::Type::kString: out += '"' + stats::json::escape(v.string) + '"'; break;
    case Value::Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ',';
        dump(v.array[i], out);
      }
      out += ']';
      break;
    case Value::Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i) out += ',';
        out += '"' + stats::json::escape(v.object[i].first) + "\":";
        dump(v.object[i].second, out);
      }
      out += '}';
      break;
  }
}

/// The exporter's canonical single-line form.
std::string dump(const Value& v) {
  std::string out;
  dump(v, out);
  return out + "\n";
}

Value load(const std::string& name) {
  Value doc;
  EXPECT_TRUE(stats::json::parse(read_file(kStatsDir / name), doc)) << name;
  return doc;
}

Value& member(Value& obj, const std::string& key) {
  for (auto& [k, v] : obj.object) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "no key " << key;
  static Value none;
  return none;
}

Value& cell(Value& doc, const std::string& section, std::size_t i) {
  return member(doc, section).array.at(i);
}

/// Loads a checked-in file, confirms it validates, applies `mutate`, and
/// returns stats::check's error for the mutated copy (expected to fail).
std::string seeded_error(const std::string& name, const std::function<void(Value&)>& mutate) {
  Value doc = load(name);
  std::string err;
  EXPECT_TRUE(stats::check(dump(doc), &err)) << name << ": " << err;
  mutate(doc);
  EXPECT_FALSE(stats::check(dump(doc), &err)) << name << ": mutation went undetected";
  return err;
}

#define EXPECT_NAMES(err, what) EXPECT_NE((err).find(what), std::string::npos) << (err)

// ---- baselines ---------------------------------------------------------------

TEST(StatsCheck, EveryCheckedInBaselinePasses) {
  int checked = 0;
  for (const fs::path& dir : {kStatsDir, kStatsDir / "metrics", kStatsDir / "full"}) {
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      const std::string name = e.path().filename().string();
      if (e.path().extension() != ".json" || name == "BENCH_micro.json") continue;
      if (dir != kStatsDir / "metrics" && name.rfind("BENCH_", 0) != 0) continue;
      std::string err;
      EXPECT_TRUE(stats::check(read_file(e.path()), &err)) << e.path() << ": " << err;
      ++checked;
    }
  }
  EXPECT_GE(checked, 23);
}

TEST(StatsCheck, RejectsMicrobenchAndUnparsableFiles) {
  std::string err;
  EXPECT_FALSE(stats::check(read_file(kStatsDir / "BENCH_micro.json"), &err));
  EXPECT_NAMES(err, "schema");
  EXPECT_FALSE(stats::check("{\"schema\":\"charmlike-stats\"}\n", &err));
  EXPECT_NAMES(err, "top level");
  EXPECT_FALSE(stats::check("{\"schema\":", &err));
  EXPECT_NAMES(err, "parse error");
}

// ---- record headers: the run each record names, which scripts/gate.py reruns ---

const fs::path kBenchDir = fs::path(CHARMLIKE_SOURCE_DIR) / "bench";

bool bench_exists(const std::string& name) { return fs::exists(kBenchDir / (name + ".cpp")); }

/// The header's "smoke" flag; a record without a boolean one fails the test.
bool smoke_flag(const Value& doc, const fs::path& record) {
  const Value* smoke = doc.find("smoke");
  EXPECT_TRUE(smoke != nullptr && smoke->type == Value::Type::kBool) << record;
  return smoke != nullptr && smoke->boolean;
}

/// The charmlike-stats records in `dir` (BENCH_micro.json holds host times).
std::vector<std::pair<fs::path, Value>> records_in(const fs::path& dir) {
  std::vector<std::pair<fs::path, Value>> records;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".json") continue;
    Value doc;
    EXPECT_TRUE(stats::json::parse(read_file(e.path()), doc)) << e.path();
    if (doc.str("schema") == "charmlike-stats") records.emplace_back(e.path(), std::move(doc));
  }
  return records;
}

TEST(RecordHeaders, EveryBenchHasASmokeRecordOfItsOwn) {
  int benches = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(kBenchDir)) {
    const std::string name = e.path().stem().string();
    if (e.path().extension() != ".cpp" || name == "micro_runtime") continue;
    ++benches;
    const fs::path record = kStatsDir / ("BENCH_" + name + ".json");
    Value doc;
    EXPECT_TRUE(stats::json::parse(read_file(record), doc)) << "no baseline " << record;
    EXPECT_EQ(doc.str("bench"), name) << record;
    EXPECT_TRUE(smoke_flag(doc, record)) << record;
  }
  EXPECT_GE(benches, 19);
  for (const auto& [record, doc] : records_in(kStatsDir)) {
    const std::string bench = doc.str("bench");
    EXPECT_TRUE(bench_exists(bench)) << record;
    EXPECT_EQ(record.filename().string(), "BENCH_" + bench + ".json");
  }
}

TEST(RecordHeaders, FullRecordsAreFullRunsNamedForTheirBench) {
  const auto records = records_in(kStatsDir / "full");
  EXPECT_GE(records.size(), 13u);
  for (const auto& [record, doc] : records) {
    const std::string bench = doc.str("bench");
    EXPECT_TRUE(bench_exists(bench)) << record;
    EXPECT_EQ(record.filename().string(), "BENCH_" + bench + ".json");
    EXPECT_FALSE(smoke_flag(doc, record)) << record;
  }
}

TEST(RecordHeaders, MetricsRecordsNameTheirBenchAndInterval) {
  const auto records = records_in(kStatsDir / "metrics");
  EXPECT_GE(records.size(), 1u);
  for (const auto& [record, doc] : records) {
    EXPECT_TRUE(bench_exists(doc.str("bench"))) << record;
    const Value* interval = doc.find("metrics_interval");
    EXPECT_TRUE(interval != nullptr && interval->is_number() && interval->number > 0) << record;
  }
}

// The monitor never perturbs virtual time: every section of a bench's smoke
// record reads the same in its --metrics smoke record, which adds its samples.
TEST(RecordHeaders, MetricsRecordsAgreeWithThePlainRun) {
  for (const auto& [record, metered] : records_in(kStatsDir / "metrics")) {
    const fs::path plain_path = kStatsDir / ("BENCH_" + metered.str("bench") + ".json");
    Value plain;
    ASSERT_TRUE(stats::json::parse(read_file(plain_path), plain)) << plain_path;
    for (const auto& [key, value] : plain.object) {
      const Value* same = metered.find(key);
      EXPECT_TRUE(same != nullptr && dump(*same) == dump(value))
          << record << ": " << key << " differs from " << plain_path;
    }
    for (const char* key : {"timeseries", "journal"}) {
      const Value* samples = metered.find(key);
      EXPECT_TRUE(samples != nullptr && !samples->array.empty()) << record << ": no " << key;
    }
  }
}

// ---- one seeded violation per invariant family --------------------------------

TEST(StatsCheck, ByteFormAndDuplicateKeys) {
  const std::string text = read_file(kStatsDir / "BENCH_fig11_namd_profiles.json");
  std::string err;
  EXPECT_FALSE(stats::check(text.substr(0, text.size() - 1), &err));
  EXPECT_NAMES(err, "byte form");
  std::string pretty = text;
  pretty.replace(pretty.find(",\"npes\""), 1, ",\n");
  EXPECT_FALSE(stats::check(pretty, &err));
  EXPECT_NAMES(err, "byte form");

  err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    Value& pe = cell(d, "pes", 1);
    pe.object.push_back(pe.object[1]);
  });
  EXPECT_NAMES(err, "pes[1]");
  EXPECT_NAMES(err, "duplicate key \"busy\"");
}

TEST(StatsCheck, KeyOrderPerSectionAndOptionalSlots) {
  std::string err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    cell(d, "pes", 2).object[4].first = "idle_s";
  });
  EXPECT_NAMES(err, "pes[2]: key drift");

  err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    Value& comm = member(d, "comm");
    std::swap(comm.object[0], comm.object[1]);
  });
  EXPECT_NAMES(err, "comm: key drift");

  // The optional taskbench slot sits between notes and totals.
  err = seeded_error("BENCH_taskbench.json", [](Value& d) {
    auto& top = d.object;
    auto tb = std::find_if(top.begin(), top.end(), [](const auto& kv) { return kv.first == "taskbench"; });
    std::rotate(tb, tb + 1, tb + 2);  // taskbench now follows totals
  });
  EXPECT_NAMES(err, "top level: key drift");

  // The three live-metrics keys appear together or not at all.
  err = seeded_error("metrics/fig10_leanmd_ckpt.json", [](Value& d) {
    auto& top = d.object;
    top.erase(std::find_if(top.begin(), top.end(), [](const auto& kv) { return kv.first == "journal"; }));
  });
  EXPECT_NAMES(err, "top level");
  EXPECT_NAMES(err, "journal");
}

TEST(StatsCheck, EverySeriesTableHasRows) {
  const std::string err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    member(cell(d, "series", 0), "rows").array.clear();
  });
  EXPECT_NAMES(err, "series[0]");
  EXPECT_NAMES(err, "no rows");
}

TEST(StatsCheck, PeAndEntrySumsMatchTotals) {
  std::string err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    Value& pe = cell(d, "pes", 0);
    member(pe, "busy").number += 1e-3;
    member(pe, "overhead").number -= 1e-3;  // keep the row self-consistent
  });
  EXPECT_NAMES(err, "pes: sum(busy)");

  err = seeded_error("BENCH_fig11_namd_profiles.json",
                     [](Value& d) { member(cell(d, "entries", 0), "exec").number += 1e-3; });
  EXPECT_NAMES(err, "entries: sum(exec)");
}

TEST(StatsCheck, CommRowsAndHistogramsMatchSendCounters) {
  std::string err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    member(member(d, "comm"), "cells").array[0].array[2].number += 1;
  });
  EXPECT_NAMES(err, "comm: row");

  err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    member(member(d, "comm"), "hops_log2").array[0].number += 1;
  });
  EXPECT_NAMES(err, "comm: hops_log2");
}

TEST(StatsCheck, EntryHistogramMatchesEntryCalls) {
  std::string err = seeded_error("BENCH_fig05_malleability.json", [](Value& d) {
    member(member(d, "comm"), "entry_ns_log2").array[0].number += 1;
  });
  EXPECT_NAMES(err, "comm: entry_ns_log2");

  // Runtime rows (col -1) are exec spans, not entry samples: their calls
  // do not count, an entry-method row's do.
  const auto bump_calls = [](bool runtime_row) {
    return [runtime_row](Value& d) {
      for (Value& e : member(d, "entries").array) {
        if ((e.num("col") < 0) == runtime_row) {
          member(e, "calls").number += 1;
          return;
        }
      }
    };
  };
  err = seeded_error("BENCH_fig05_malleability.json", bump_calls(false));
  EXPECT_NAMES(err, "comm: entry_ns_log2");
  Value doc = load("BENCH_fig05_malleability.json");
  bump_calls(true)(doc);
  EXPECT_TRUE(stats::check(dump(doc), &err)) << err;
}

TEST(StatsCheck, PhasesTileTheRun) {
  std::string err = seeded_error("BENCH_fig10_leanmd_ckpt.json", [](Value& d) {
    ASSERT_GE(member(d, "phases").array.size(), 2u);
    member(cell(d, "phases", 1), "t0").number += 1e-4;
  });
  EXPECT_NAMES(err, "phases[1]: gap");

  err = seeded_error("BENCH_fig10_leanmd_ckpt.json", [](Value& d) {
    member(member(d, "phases").array.back(), "t1").number *= 0.5;
  });
  EXPECT_NAMES(err, "phases: last t1");

  // A segment is named by a sim::Phase wire name ("start" opens the run).
  err = seeded_error("BENCH_fig10_leanmd_ckpt.json", [](Value& d) {
    member(cell(d, "phases", 1), "name").string = "lb_round";
  });
  EXPECT_NAMES(err, "phases[1]: unknown phase name");
  err = seeded_error("BENCH_fig10_leanmd_ckpt.json", [](Value& d) {
    member(cell(d, "phases", 0), "name").string = "checkpoint";
  });
  EXPECT_NAMES(err, "phases[0]: unknown phase name");
}

TEST(StatsCheck, CriticalPathBoundedByMakespan) {
  std::string err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    member(member(d, "critical_path"), "work").number += 1e-3;
  });
  EXPECT_NAMES(err, "critical_path: work + comm");

  err = seeded_error("BENCH_fig11_namd_profiles.json", [](Value& d) {
    Value& cp = member(d, "critical_path");
    const double extra = d.num("makespan");
    member(cp, "length").number += extra;
    member(cp, "work").number += extra;
  });
  EXPECT_NAMES(err, "critical_path: length");
}

TEST(StatsCheck, TaskbenchDerivedMetricsAndUniqueCells) {
  std::string err = seeded_error("BENCH_taskbench.json", [](Value& d) {
    member(cell(d, "taskbench", 3), "efficiency").number *= 1.1;
  });
  EXPECT_NAMES(err, "taskbench[3]: efficiency");

  err = seeded_error("BENCH_taskbench.json", [](Value& d) {
    member(cell(d, "taskbench", 5), "ideal").number *= 2;
  });
  EXPECT_NAMES(err, "taskbench[5]: ideal");

  err = seeded_error("BENCH_taskbench.json", [](Value& d) {
    for (Value& c : member(d, "taskbench").array) {
      if (c.str("transport") == "point") {
        member(c, "tram_aggregation").number = 2;
        return;
      }
    }
  });
  EXPECT_NAMES(err, "tram_aggregation");

  err = seeded_error("BENCH_taskbench.json", [](Value& d) {
    std::vector<Value>& cells = member(d, "taskbench").array;
    cells[1] = cells[0];
  });
  EXPECT_NAMES(err, "taskbench[1]: duplicate cell");
}

TEST(StatsCheck, CollectivesTopologyPartialsAndTimePerRound) {
  const auto first = [](Value& d, const char* topology) -> Value& {
    for (Value& c : member(d, "collectives").array) {
      if (c.str("topology") == topology) return c;
    }
    ADD_FAILURE() << "no " << topology << " cell";
    return d;
  };
  std::string err = seeded_error("BENCH_collectives.json",
                                 [&](Value& d) { member(first(d, "tree"), "arity").number = 0; });
  EXPECT_NAMES(err, "collectives[");
  EXPECT_NAMES(err, "does not match topology");

  err = seeded_error("BENCH_collectives.json",
                     [&](Value& d) { member(first(d, "flat"), "partial_sends").number = 3; });
  EXPECT_NAMES(err, "partial_sends");

  err = seeded_error("BENCH_collectives.json", [&](Value& d) {
    member(first(d, "tree"), "time_per_round").number *= 1.01;
  });
  EXPECT_NAMES(err, "time_per_round");
}

TEST(StatsCheck, TimeseriesAndJournal) {
  const std::string file = "metrics/fig10_leanmd_ckpt.json";
  std::string err =
      seeded_error(file, [](Value& d) { member(cell(d, "timeseries", 4), "t").number *= 1.5; });
  EXPECT_NAMES(err, "timeseries[4]: t");

  err = seeded_error(file, [](Value& d) {
    Value& s = cell(d, "timeseries", 6);
    member(s, "execs").number = cell(d, "timeseries", 5).num("execs") - 1;
  });
  EXPECT_NAMES(err, "timeseries[6]: execs: cumulative counter decreased");

  err = seeded_error(file,
                     [](Value& d) { member(cell(d, "timeseries", 2), "msg_rate").number += 1; });
  EXPECT_NAMES(err, "timeseries[2]: msg_rate");

  err = seeded_error(file, [](Value& d) {
    Value& s = cell(d, "timeseries", 0);
    member(s, "evq_hwm").number = s.num("evq") - 1;
  });
  EXPECT_NAMES(err, "timeseries[0]: evq_hwm");

  err = seeded_error(file, [](Value& d) {
    std::vector<Value>& j = member(d, "journal").array;
    ASSERT_GE(j.size(), 2u);
    std::swap(j.front(), j.back());
  });
  EXPECT_NAMES(err, "journal[");
  EXPECT_NAMES(err, "out of order");

  err = seeded_error(file, [](Value& d) { member(cell(d, "journal", 0), "kind").string = "nap"; });
  EXPECT_NAMES(err, "journal[0]: unknown kind");
  // The journal and the trace share one name per phase: no "lb_round".
  err = seeded_error(file, [](Value& d) { member(cell(d, "journal", 0), "kind").string = "lb_round"; });
  EXPECT_NAMES(err, "journal[0]: unknown kind");
}

// ---- statsview ---------------------------------------------------------------

/// Runs statsview with `args`, output into `log`; returns its exit code.
int statsview(const std::string& args, const fs::path& log) {
  const std::string cmd = std::string(STATSVIEW_BIN) + " " + args + " > " + log.string() + " 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A per-process scratch directory (concurrent test runs do not collide),
/// removed when the test ends.
struct ScratchDir {
  const fs::path dir =
      fs::path(testing::TempDir()) / ("statsview_" + std::to_string(::getpid()));
  ScratchDir() { fs::create_directories(dir); }
  ~ScratchDir() { fs::remove_all(dir); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  fs::path operator/(const std::string& name) const { return dir / name; }
};

TEST(Statsview, SweepDiffMatchesCellsByIdentityAndGatesDeclaredKey) {
  const ScratchDir tmp;
  for (const stats::Section* sweep : stats::schema::kSweeps) {
    const std::string name = std::string(sweep->name);
    const std::string file = "BENCH_" + name + ".json";
    const fs::path base = kStatsDir / file;
    const fs::path cand = tmp / file;
    const fs::path log = tmp / (name + ".log");

    EXPECT_EQ(statsview(base.string(), log), 0) << read_file(log);
    EXPECT_NAMES(read_file(log), name + " sweep");
    write_file(cand, read_file(base));
    EXPECT_EQ(statsview("--threshold=5 " + base.string() + " " + cand.string(), log), 0)
        << read_file(log);

    // A baseline cell missing from the candidate gates.
    Value doc = load(file);
    std::vector<Value>& cells = member(doc, name).array;
    cells.erase(cells.begin() + 2);
    write_file(cand, dump(doc));
    EXPECT_EQ(statsview("--threshold=5 " + base.string() + " " + cand.string(), log), 2);
    EXPECT_NAMES(read_file(log), "MISSING");

    // +6% on one cell's gated key (derived keys kept consistent so the
    // candidate still validates) gates at a 5% threshold.
    doc = load(file);
    Value& c = cell(doc, name, 2);
    member(c, std::string(sweep->gate)).number *= 1.06;
    if (name == "taskbench") {
      const double makespan = c.num("makespan"), ideal = c.num("ideal");
      member(c, "efficiency").number = ideal / makespan;
      member(c, "overhead_per_task").number = (makespan - ideal) * c.num("npes") / c.num("tasks");
    } else {
      member(c, "makespan").number = c.num("time_per_round") * c.num("rounds");
    }
    write_file(cand, dump(doc));
    EXPECT_EQ(statsview("--threshold=5 " + base.string() + " " + cand.string(), log), 2)
        << read_file(log);
    EXPECT_NAMES(read_file(log), "REGRESSION");
  }
}

TEST(Statsview, MalformedInputExitsOneInEveryMode) {
  const ScratchDir tmp;
  const fs::path stub = tmp / "stub.json";
  const fs::path log = tmp / "stub.log";
  write_file(stub, "{\"schema\":\"charmlike-stats\"}\n");
  const std::string fig11 = (kStatsDir / "BENCH_fig11_namd_profiles.json").string();
  const std::string coll = (kStatsDir / "BENCH_collectives.json").string();
  const std::string metrics = (kStatsDir / "metrics/fig10_leanmd_ckpt.json").string();

  // Stub as the candidate, then as the baseline: neither passes vacuously.
  EXPECT_EQ(statsview("--threshold=5 " + fig11 + " " + stub.string(), log), 1);
  EXPECT_NAMES(read_file(log), stub.string() + ": top level");
  EXPECT_EQ(statsview("--threshold=5 " + stub.string() + " " + coll, log), 1);
  EXPECT_NAMES(read_file(log), stub.string() + ": top level");
  EXPECT_EQ(statsview(stub.string(), log), 1);
  EXPECT_EQ(statsview("timeline " + stub.string(), log), 1);
  EXPECT_EQ(statsview("timeline " + metrics + " " + stub.string(), log), 1);
  EXPECT_EQ(statsview("check " + coll + " " + stub.string(), log), 1);
  EXPECT_NAMES(read_file(log), coll + ": OK");

  EXPECT_EQ(statsview("check " + coll + " " + metrics, log), 0);
  EXPECT_EQ(statsview("timeline " + metrics, log), 0);
  EXPECT_EQ(statsview("timeline " + metrics + " " + metrics, log), 0);
  EXPECT_EQ(statsview(fig11, log), 0);
}

TEST(Statsview, MalformedFlagValuesExitOne) {
  const ScratchDir tmp;
  const fs::path log = tmp / "flags.log";
  const std::string fig11 = (kStatsDir / "BENCH_fig11_namd_profiles.json").string();
  const std::string same = " " + fig11 + " " + fig11;
  for (const char* flag : {"--threshold=abc", "--threshold=5x", "--threshold=-50",
                           "--threshold=inf", "--threshold=", "--top=abc", "--top=0",
                           "--top=-3", "--top=2.5"}) {
    EXPECT_EQ(statsview(flag + same, log), 1) << flag << ": " << read_file(log);
    EXPECT_NAMES(read_file(log), std::string("statsview: ") + flag + ":");
  }
  EXPECT_EQ(statsview("--threshold=0 --top=3" + same, log), 0) << read_file(log);
}

}  // namespace
