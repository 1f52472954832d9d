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

TEST(Claims, EveryFullRecordHoldsItsShape) {
  for (const Claim& c : claims()) EXPECT_EQ(c.violated(load(c.record)), "") << c.record;
}

TEST(Claims, InvertingAnyClaimedRowFailsTheClaim) {
  for (const Claim& c : claims()) EXPECT_EQ(c.inversions_passing(load(c.record)), 0) << c.record;
}

TEST(Claims, SmokeRecordIsNotEvidence) {
  // The claims read full runs only: the smoke records flatten or invert them.
  for (const Claim& c : claims()) {
    Value doc = load(c.record);
    member(doc, "smoke")->boolean = true;
    EXPECT_EQ(c.violated(doc), "not a full run") << c.record;
  }
}

}  // namespace
