#pragma once
// Reference load-balancing algorithms: the pre-database from-scratch gather
// and the from-scratch GreedyLB, RefineLB and HybridLB, kept verbatim as the
// oracle the production code must match bit-for-bit (DESIGN.md §13).
// src/lb has one algorithm per strategy, reading the Stats' index;
// tests/features/test_lb_incremental.cpp compares every decision it makes
// with these using ==, and bench/micro_runtime.cpp's BM_LbAssignRebuild_*
// times them as the pre-database cost model.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <map>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "lb/strategy.hpp"
#include "runtime/runtime.hpp"

namespace lbref {

using namespace charm;
using namespace charm::lb;

/// The sparse SpeedMap of a dense per-PE speed vector (PE i runs at dense[i]).
inline SpeedMap speed_map(const std::vector<double>& dense) {
  SpeedMap m;
  for (std::size_t pe = 0; pe < dense.size(); ++pe) m.set(static_cast<int>(pe), dense[pe]);
  return m;
}

/// The from-scratch gather: walk every touched PE of each collection in
/// `cols`, then canonical-sort.  Equal to LbManager::snapshot_stats' chares.
inline Stats rebuild_stats(Runtime& rt, const std::vector<CollectionId>& cols,
                           int target_pes) {
  Stats s;
  s.npes = target_pes;
  // Untouched PEs read as frequency 1.0 — the SpeedMap default — so a
  // touched-only walk sees every non-default speed without a dense O(P)
  // vector.
  const sim::Machine& m = rt.machine();
  m.for_each_touched_pe([&](int pe, const sim::Pe& p) {
    if (p.freq() != 1.0) s.pe_speed.set(pe, p.freq());
  });
  for (CollectionId col : cols) {
    Collection& c = rt.collection(col);
    c.pe.for_each_touched([&](std::size_t pe, PeLocal& pl) {
      for (auto& [ix, obj] : pl.elems) {
        ChareInfo info;
        info.col = col;
        info.idx = ix;
        info.pe = static_cast<int>(pe);
        // Measured load is in virtual seconds on the source PE; normalize
        // back to work units so strategies can predict times on other PEs.
        info.work = obj->round_load() * s.pe_speed[pe];
        info.migratable = obj->migratable() && c.migratable();
        info.coords = obj->lb_coords();
        s.chares.push_back(info);
      }
    });
  }
  // Deterministic order regardless of hash-map iteration details.
  std::sort(s.chares.begin(), s.chares.end(), [](const ChareInfo& a, const ChareInfo& b) {
    if (a.col != b.col) return a.col < b.col;
    if (a.idx.a != b.idx.a) return a.idx.a < b.idx.a;
    return a.idx.b < b.idx.b;
  });
  return s;
}

namespace detail {

inline std::vector<std::size_t> migratable_by_desc_work(const Stats& s) {
  std::vector<std::size_t> ids;
  ids.reserve(s.chares.size());
  for (std::size_t i = 0; i < s.chares.size(); ++i)
    if (s.chares[i].migratable) ids.push_back(i);
  std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
    if (s.chares[a].work != s.chares[b].work) return s.chares[a].work > s.chares[b].work;
    return a < b;  // deterministic tie-break
  });
  return ids;
}

inline std::vector<double> base_completion(const Stats& s) {
  // Completion contributed by non-migratable chares (they stay put).
  std::vector<double> done(static_cast<std::size_t>(s.npes), 0.0);
  for (const ChareInfo& c : s.chares) {
    if (!c.migratable && c.pe < s.npes)
      done[static_cast<std::size_t>(c.pe)] += c.work / s.pe_speed[static_cast<std::size_t>(c.pe)];
  }
  return done;
}

inline std::vector<Migration> to_migrations(const Stats& s, const std::vector<int>& target) {
  std::vector<Migration> out;
  for (std::size_t i = 0; i < s.chares.size(); ++i) {
    const ChareInfo& c = s.chares[i];
    if (c.migratable && target[i] != c.pe)
      out.push_back(Migration{c.col, c.idx, c.pe, target[i]});
  }
  return out;
}

/// Speed-aware min-completion assignment over a subset of PEs.  PEs are
/// bucketed by identical speed so the argmin is O(#speed classes) per chare.
class MinCompletionAssigner {
 public:
  MinCompletionAssigner(const Stats& s, std::vector<int> pes, std::vector<double> done)
      : speeds_(s.pe_speed), done_(std::move(done)) {
    std::map<double, std::vector<int>> classes;
    for (int pe : pes) classes[speeds_[static_cast<std::size_t>(pe)]].push_back(pe);
    for (auto& [speed, members] : classes) {
      Class cl;
      cl.speed = speed;
      for (int pe : members) cl.heap.push({done_[static_cast<std::size_t>(pe)], pe});
      classes_.push_back(std::move(cl));
    }
  }

  int place(double work) {
    double best_time = 0;
    std::size_t best = classes_.size();
    for (std::size_t k = 0; k < classes_.size(); ++k) {
      const auto& top = classes_[k].heap.top();
      const double t = top.first + work / classes_[k].speed;
      if (best == classes_.size() || t < best_time ||
          (t == best_time && top.second < classes_[best].heap.top().second)) {
        best = k;
        best_time = t;
      }
    }
    Class& cl = classes_[best];
    auto [cur, pe] = cl.heap.top();
    cl.heap.pop();
    cl.heap.push({cur + work / cl.speed, pe});
    done_[static_cast<std::size_t>(pe)] = cur + work / cl.speed;
    return pe;
  }

 private:
  struct Class {
    double speed = 1.0;
    // min-heap of (completion, pe); pe tie-break keeps runs deterministic
    std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                        std::greater<>>
        heap;
  };
  const SpeedMap& speeds_;
  std::vector<double> done_;
  std::vector<Class> classes_;
};

}  // namespace detail

inline std::vector<Migration> greedy(const Stats& s) {
  using namespace detail;
  std::vector<int> pes(static_cast<std::size_t>(s.npes));
  std::iota(pes.begin(), pes.end(), 0);
  MinCompletionAssigner assigner(s, pes, base_completion(s));
  std::vector<int> target(s.chares.size());
  for (std::size_t i = 0; i < s.chares.size(); ++i) target[i] = s.chares[i].pe;
  for (std::size_t i : migratable_by_desc_work(s)) target[i] = assigner.place(s.chares[i].work);
  return to_migrations(s, target);
}

inline std::vector<Migration> refine(const Stats& s, double tol) {
  using namespace detail;
  const auto n = static_cast<std::size_t>(s.npes);
  std::vector<double> done(n, 0.0);
  std::vector<int> target(s.chares.size());
  std::vector<std::vector<std::size_t>> on_pe(n);
  double total_work = 0;
  for (std::size_t i = 0; i < s.chares.size(); ++i) {
    const ChareInfo& c = s.chares[i];
    const int pe = std::min(c.pe, s.npes - 1);
    target[i] = pe;
    done[static_cast<std::size_t>(pe)] += c.work / s.pe_speed[static_cast<std::size_t>(pe)];
    if (c.migratable) on_pe[static_cast<std::size_t>(pe)].push_back(i);
    total_work += c.work;
  }
  const double total_speed = s.pe_speed.sum_first(s.npes);
  const double target_time = total_work / total_speed;

  for (int iter = 0; iter < 8 * s.npes; ++iter) {
    const auto hot = static_cast<std::size_t>(
        std::max_element(done.begin(), done.end()) - done.begin());
    const auto cold = static_cast<std::size_t>(
        std::min_element(done.begin(), done.end()) - done.begin());
    if (done[hot] <= target_time * tol) break;
    // Move the largest chare that fits without overshooting the target.
    std::size_t pick = s.chares.size();
    double pick_work = -1;
    for (std::size_t i : on_pe[hot]) {
      const double w = s.chares[i].work;
      if (done[cold] + w / s.pe_speed[cold] <= target_time * tol && w > pick_work) {
        pick = i;
        pick_work = w;
      }
    }
    if (pick == s.chares.size()) {
      // Nothing fits under the cap; move the smallest to make progress.
      for (std::size_t i : on_pe[hot])
        if (pick == s.chares.size() || s.chares[i].work < pick_work ||
            pick_work < 0) {
          pick = i;
          pick_work = s.chares[i].work;
        }
      if (pick == s.chares.size()) break;
    }
    on_pe[hot].erase(std::find(on_pe[hot].begin(), on_pe[hot].end(), pick));
    on_pe[cold].push_back(pick);
    done[hot] -= pick_work / s.pe_speed[hot];
    done[cold] += pick_work / s.pe_speed[cold];
    target[pick] = static_cast<int>(cold);
  }
  return to_migrations(s, target);
}

inline std::vector<Migration> hybrid(const Stats& s) {
  using namespace detail;
  const int ngroups = std::max(1, static_cast<int>(std::round(std::sqrt(s.npes))));
  const int per_group = (s.npes + ngroups - 1) / ngroups;
  auto group_of = [&](int pe) { return pe / per_group; };

  // Level 1: greedy over groups (capacity = sum of member speeds).
  std::vector<double> group_speed(static_cast<std::size_t>(ngroups), 0.0);
  for (int pe = 0; pe < s.npes; ++pe)
    group_speed[static_cast<std::size_t>(group_of(pe))] +=
        s.pe_speed[static_cast<std::size_t>(pe)];

  std::vector<double> group_done(static_cast<std::size_t>(ngroups), 0.0);
  for (const ChareInfo& c : s.chares)
    if (!c.migratable)
      group_done[static_cast<std::size_t>(group_of(std::min(c.pe, s.npes - 1)))] +=
          c.work / group_speed[static_cast<std::size_t>(group_of(std::min(c.pe, s.npes - 1)))];

  const std::vector<std::size_t> order = migratable_by_desc_work(s);
  std::vector<int> chare_group(s.chares.size());
  for (std::size_t i = 0; i < s.chares.size(); ++i)
    chare_group[i] = group_of(std::min(s.chares[i].pe, s.npes - 1));
  for (std::size_t i : order) {
    int best = 0;
    double best_t = 0;
    for (int g = 0; g < ngroups; ++g) {
      const double t = group_done[static_cast<std::size_t>(g)] +
                       s.chares[i].work / group_speed[static_cast<std::size_t>(g)];
      if (g == 0 || t < best_t) {
        best = g;
        best_t = t;
      }
    }
    chare_group[i] = best;
    group_done[static_cast<std::size_t>(best)] = best_t;
  }

  // Level 2: greedy within each group.  The scratch completion vector must
  // cover every hosting PE (chares can sit beyond npes before a shrink).
  std::size_t done_size = static_cast<std::size_t>(s.npes);
  for (const ChareInfo& c : s.chares)
    done_size = std::max(done_size, static_cast<std::size_t>(c.pe) + 1);
  std::vector<int> target(s.chares.size());
  for (std::size_t i = 0; i < s.chares.size(); ++i) target[i] = s.chares[i].pe;
  for (int g = 0; g < ngroups; ++g) {
    std::vector<int> pes;
    for (int pe = g * per_group; pe < std::min((g + 1) * per_group, s.npes); ++pe)
      pes.push_back(pe);
    if (pes.empty()) continue;
    std::vector<double> done(done_size, 0.0);
    for (const ChareInfo& c : s.chares)
      if (!c.migratable && group_of(std::min(c.pe, s.npes - 1)) == g)
        done[static_cast<std::size_t>(c.pe)] +=
            c.work / s.pe_speed[static_cast<std::size_t>(c.pe)];
    MinCompletionAssigner assigner(s, pes, done);
    for (std::size_t i : order)
      if (chare_group[i] == g) target[i] = assigner.place(s.chares[i].work);
  }
  return to_migrations(s, target);
}

}  // namespace lbref
