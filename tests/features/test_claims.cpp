// Executable figure claims: each shape claim that EXPERIMENTS.md marks as
// reproduced is a predicate over a checked-in full-run record under
// bench_stats/full/ (CI regenerates those records and `cmp`s them).  Each
// claim also has a mutation check: swapping the two compared values in any
// row the claim reads must make the predicate fail, so a record that stops
// showing the shape cannot pass.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/json.hpp"

namespace {

namespace fs = std::filesystem;
using stats::json::Value;

const fs::path kFullDir = fs::path(CHARMLIKE_SOURCE_DIR) / "bench_stats" / "full";

Value load(const std::string& name) {
  std::ifstream in(kFullDir / name, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  Value doc;
  std::string err;
  EXPECT_TRUE(stats::json::parse(ss.str(), doc, &err)) << name << ": " << err;
  return doc;
}

/// Member `key` of object `obj` (nullptr when absent); V is Value or const Value.
template <class V>
V* member(V& obj, const std::string& key) {
  for (auto& kv : obj.object)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

/// The series whose title starts with `prefix` (nullptr when absent).
template <class V>
V* series(V& doc, const std::string& prefix) {
  V* all = member(doc, "series");
  if (all == nullptr) return nullptr;
  for (V& s : all->array)
    if (s.str("title").rfind(prefix, 0) == 0) return &s;
  return nullptr;
}

/// Index of column `name` in series `s` (-1 when absent).
int column(const Value& s, const std::string& name) {
  const Value* cols = s.find("columns");
  if (cols == nullptr) return -1;
  for (std::size_t i = 0; i < cols->array.size(); ++i)
    if (cols->array[i].string == name) return static_cast<int>(i);
  return -1;
}

bool every_p(double) { return true; }

/// One shape claim: in series `title`, column `better` is below column
/// `worse` (above it, when `higher_is_better`) in every row whose PE count
/// passes `at`.
struct Claim {
  std::string record;
  std::string title;
  std::string better;
  std::string worse;
  bool higher_is_better;
  std::function<bool(double pes)> at;

  /// "" when the claim holds on `doc`, else what broke it.
  std::string violated(const Value& doc) const {
    const Value* smoke = doc.find("smoke");
    if (smoke == nullptr || smoke->boolean) return "not a full run";
    const Value* s = series(doc, title);
    if (s == nullptr) return "no series \"" + title + "\"";
    const int pes = column(*s, "PEs"), b = column(*s, better), w = column(*s, worse);
    if (pes < 0 || b < 0 || w < 0) return "missing column";
    int rows = 0;
    for (const Value& row : s->find("rows")->array) {
      const double p = row.array[static_cast<std::size_t>(pes)].number;
      if (!at(p)) continue;
      ++rows;
      const double vb = row.array[static_cast<std::size_t>(b)].number;
      const double vw = row.array[static_cast<std::size_t>(w)].number;
      if (higher_is_better ? !(vb > vw) : !(vb < vw)) {
        std::ostringstream os;
        os << better << "=" << vb << " vs " << worse << "=" << vw << " at P=" << p;
        return os.str();
      }
    }
    return rows == 0 ? "no row at the claimed PE count" : "";
  }

  /// Swaps the compared values in each row the claim reads, one row at a
  /// time, and counts the inverted records that still pass.
  int inversions_passing(Value doc) const {
    Value* s = series(doc, title);
    if (s == nullptr) return -1;
    const int pes = column(*s, "PEs"), b = column(*s, better), w = column(*s, worse);
    int passing = 0;
    for (Value& row : member(*s, "rows")->array) {
      if (!at(row.array[static_cast<std::size_t>(pes)].number)) continue;
      std::swap(row.array[static_cast<std::size_t>(b)], row.array[static_cast<std::size_t>(w)]);
      passing += violated(doc).empty();
      std::swap(row.array[static_cast<std::size_t>(b)], row.array[static_cast<std::size_t>(w)]);
    }
    return passing;
  }
};

/// One row-comparison claim: in series `title`, the row whose `key` column
/// is `row` has the strictly largest (`largest`) or smallest `value` among
/// itself and the rows keyed `others`.
struct RowClaim {
  std::string record;
  std::string title;
  std::string key;
  std::string value;
  double row;
  std::vector<double> others;
  bool largest;

  /// The row of `s` keyed `k` (nullptr when absent).
  template <class V>
  V* find_row(V& s, double k) const {
    const int kc = column(s, key);
    if (kc < 0) return nullptr;
    for (V& r : member(s, "rows")->array)
      if (r.array[static_cast<std::size_t>(kc)].number == k) return &r;
    return nullptr;
  }

  /// "" when the claim holds on `doc`, else what broke it.
  std::string violated(const Value& doc) const {
    const Value* smoke = doc.find("smoke");
    if (smoke == nullptr || smoke->boolean) return "not a full run";
    const Value* s = series(doc, title);
    if (s == nullptr) return "no series \"" + title + "\"";
    const int vc = column(*s, value);
    const Value* claimed = find_row(*s, row);
    if (vc < 0 || claimed == nullptr) return "missing column or row";
    const double v = claimed->array[static_cast<std::size_t>(vc)].number;
    for (double k : others) {
      const Value* other = find_row(*s, k);
      if (other == nullptr) return "missing row";
      const double o = other->array[static_cast<std::size_t>(vc)].number;
      if (largest ? !(v > o) : !(v < o)) {
        std::ostringstream os;
        os << value << "=" << v << " at " << key << "=" << row << " vs " << o << " at "
           << key << "=" << k;
        return os.str();
      }
    }
    return "";
  }

  /// Swaps the claimed row's value with each other row's, one at a time,
  /// and counts the inverted records that still pass.
  int inversions_passing(Value doc) const {
    Value* s = series(doc, title);
    if (s == nullptr) return -1;
    const auto vc = static_cast<std::size_t>(column(*s, value));
    Value* claimed = find_row(*s, row);
    int passing = 0;
    for (double k : others) {
      Value* other = find_row(*s, k);
      std::swap(claimed->array[vc], other->array[vc]);
      passing += violated(doc).empty();
      std::swap(claimed->array[vc], other->array[vc]);
    }
    return passing;
  }
};

const std::vector<Claim>& claims() {
  static const std::vector<Claim> all = {
      // Fig 8 (left): DistributedLB beats NoLB at every PE count.
      {"BENCH_fig08_amr.json", "Figure 8 (left)", "DistLB_s/step", "NoLB_s/step", false,
       every_p},
      // Fig 9: LB speedup exceeds NoLB speedup at 64 PEs.
      {"BENCH_fig09_leanmd_scaling.json", "Figure 9", "speedup_LB", "speedup_NoLB", true,
       [](double p) { return p == 64; }},
      // Fig 7: HistSort's share of the run stays below the multiway merge's.
      {"BENCH_fig07_interop_sort.json", "Figure 7", "hist_share%", "merge_share%", false,
       every_p},
      // Fig 11: the XK7-like machine is faster than the XT5-like one.
      {"BENCH_fig11_namd_profiles.json", "Figure 11", "XK7-like_ms", "XT5-like_ms", false,
       every_p},
      // Fig 14: virtualization (8 ranks per PE) beats one rank per PE.
      {"BENCH_fig14_lulesh_ampi.json", "Figure 14:", "AMPI(v=8)", "AMPI(v=1)", false,
       every_p},
      // Fig 15a: more LPs per PE raise the PHOLD event rate.
      {"BENCH_fig15a_phold_overdecomp.json", "Figure 15a", "64 LPs/PE", "16 LPs/PE", true,
       every_p},
      // Fig 15b: TRAM raises the event rate at 256 events per LP.
      {"BENCH_fig15b_phold_tram.json", "Figure 15b", "TRAM 256e/LP", "noTRAM 256e/LP", true,
       every_p},
      // Fig 17: heterogeneity-aware LB beats NoLB on the slow-node cloud.
      {"BENCH_fig17_cloud_leanmd.json", "Figure 17", "HeteroLB_ms", "HeteroNoLB_ms", false,
       every_p},
  };
  return all;
}

const std::vector<RowClaim>& row_claims() {
  // Fig 4 rows are keyed by scheme_id: 0=Base 1=Naive_DVFS 2=LB_10s 3=LB_5s
  // 4=MetaTemp; the other figures' rows by iteration, step or PE count.
  static const std::vector<RowClaim> all = {
      // Naive DVFS pays the largest timing penalty.
      {"BENCH_fig04_power.json", "Figure 4", "scheme_id", "exec_s", 1, {0, 2, 3, 4}, true},
      // MetaTemp is the fastest of the four DVFS schemes.
      {"BENCH_fig04_power.json", "Figure 4", "scheme_id", "exec_s", 4, {1, 2, 3}, false},
      // Base never throttles, so it runs hottest.
      {"BENCH_fig04_power.json", "Figure 4", "scheme_id", "max_temp_C", 0, {1, 2, 3, 4},
       true},
      // Fig 5: the 16-PE steady step is slower than the 32-PE steps before
      // the shrink and after the expand.
      {"BENCH_fig05_malleability.json", "Figure 5", "iteration", "step_time_s", 49, {25, 75},
       true},
      // Fig 5: the expand spike is larger than the shrink spike.
      {"BENCH_fig05_malleability.json", "Figure 5", "iteration", "step_time_s", 51, {26},
       true},
      // Fig 6: the settled step (k = 16) beats the k = 2, 4 and 8 probes.
      {"BENCH_fig06_controlpoints.json", "Figure 6", "step", "step_ms", 59, {0, 3, 6}, false},
      // Fig 10: the big system's checkpoint is fastest at 64 PEs.  ("Figure 1"
      // would also match, since series() matches by prefix.)
      {"BENCH_fig10_leanmd_ckpt.json", "Figure 10", "PEs", "big_ckpt_ms", 64, {8, 16, 32},
       false},
      // Fig 16: without LB the interference persists to the last iteration...
      {"BENCH_fig16_cloud_stencil.json", "Figure 16", "iteration", "NoLB_ms", 291, {91}, true},
      // ...and with LB the iteration time recovers from the onset spike.
      {"BENCH_fig16_cloud_stencil.json", "Figure 16", "iteration", "LB_ms", 291, {101}, false},
  };
  return all;
}

TEST(Claims, EveryFullRecordHoldsItsShape) {
  for (const Claim& c : claims()) EXPECT_EQ(c.violated(load(c.record)), "") << c.record;
  for (const RowClaim& c : row_claims())
    EXPECT_EQ(c.violated(load(c.record)), "") << c.record << " " << c.value;
}

TEST(Claims, InvertingAnyClaimedRowFailsTheClaim) {
  for (const Claim& c : claims()) EXPECT_EQ(c.inversions_passing(load(c.record)), 0) << c.record;
  for (const RowClaim& c : row_claims())
    EXPECT_EQ(c.inversions_passing(load(c.record)), 0) << c.record << " " << c.value;
}

TEST(Claims, SmokeRecordIsNotEvidence) {
  // The claims read full runs only: the smoke records flatten or invert them.
  for (const Claim& c : claims()) {
    Value doc = load(c.record);
    member(doc, "smoke")->boolean = true;
    EXPECT_EQ(c.violated(doc), "not a full run") << c.record;
  }
  for (const RowClaim& c : row_claims()) {
    Value doc = load(c.record);
    member(doc, "smoke")->boolean = true;
    EXPECT_EQ(c.violated(doc), "not a full run") << c.record << " " << c.value;
  }
}

}  // namespace
