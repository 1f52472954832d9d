// Centralized load balancing strategies: GreedyLB, RefineLB, HybridLB.  All
// strategies are speed-aware: predicted completion of PE p is
// sum(work)/speed[p], so they remain correct under DVFS and heterogeneous
// clouds.
//
// Each strategy has one algorithm (DESIGN.md §13).  It reads the Stats'
// index (per-PE completion sums, per-PE chare buckets, the work-order index):
// the load database's maintained one for a snapshot, or index_of's
// from-scratch one for a hand-built Stats.  Decisions are bit-identical to
// the pre-database from-scratch algorithms, which tests/lb_reference.hpp
// keeps as the oracle: same FP accumulation order wherever a sum feeds a
// comparison, and the same tie-breaks (the old max_element/min_element keep
// the first — i.e. lowest-PE — extremum, so the heaps order ties toward the
// smaller PE).  test_lb_incremental fuzzes this equivalence.

#include "lb/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <queue>

namespace charm::lb {

void SpeedMap::set(int pe, double f) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), pe,
                             [](const std::pair<int, double>& e, int p) { return e.first < p; });
  if (it != entries_.end() && it->first == pe) {
    if (f == 1.0)
      entries_.erase(it);
    else
      it->second = f;
  } else if (f != 1.0) {
    entries_.insert(it, {pe, f});
  }
}

double SpeedMap::sum_first(int npes) const {
  // Replays std::accumulate over the dense vector.  A run of k default
  // entries adds 1.0 k times; when the accumulator holds an exact small
  // integer every such step is exact, so the run collapses to one add.
  double acc = 0.0;
  int pe = 0;
  auto add_default_run = [&acc](int k) {
    while (k > 0) {
      const double kd = static_cast<double>(k);
      if (acc == std::floor(acc) && std::abs(acc) < 9.0e15 && acc + kd < 9.0e15) {
        acc += kd;
        return;
      }
      acc += 1.0;
      --k;
    }
  };
  for (const auto& [p, f] : entries_) {
    if (p >= npes) break;
    add_default_run(p - pe);
    acc += f;
    pe = p + 1;
  }
  add_default_run(npes - pe);
  return acc;
}

StatsAux index_of(const Stats& s) {
  StatsAux aux;
  aux.valid = true;
  for (const ChareInfo& c : s.chares) aux.total_work += c.work;
  const auto n = static_cast<std::uint32_t>(s.chares.size());
  aux.bucket_ranks.resize(n);
  std::iota(aux.bucket_ranks.begin(), aux.bucket_ranks.end(), 0u);
  std::stable_sort(aux.bucket_ranks.begin(), aux.bucket_ranks.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return s.chares[a].pe < s.chares[b].pe;
                   });
  double speed = 1.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const ChareInfo& c = s.chares[aux.bucket_ranks[k]];
    if (aux.pes.empty() || aux.pes.back() != c.pe) {
      aux.pes.push_back(c.pe);
      aux.bucket_off.push_back(k);
      aux.done_all.push_back(0.0);
      aux.done_nonmig.push_back(0.0);
      speed = s.pe_speed[static_cast<std::size_t>(c.pe)];
    }
    aux.done_all.back() += c.work / speed;
    if (!c.migratable) aux.done_nonmig.back() += c.work / speed;
  }
  aux.bucket_off.push_back(n);
  for (std::uint32_t r = 0; r < n; ++r)
    if (s.chares[r].migratable) aux.desc_by_work.push_back(r);
  std::sort(aux.desc_by_work.begin(), aux.desc_by_work.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (s.chares[a].work != s.chares[b].work) return s.chares[a].work > s.chares[b].work;
              return a < b;  // deterministic tie-break
            });
  return aux;
}

namespace {

/// The snapshot's own index, or one built from scratch into `scratch` for a
/// hand-built Stats.
const StatsAux& indexed(const Stats& s, StatsAux& scratch) {
  if (s.aux.valid) return s.aux;
  scratch = index_of(s);
  return scratch;
}

std::vector<Migration> to_migrations(const Stats& s, const std::vector<int>& target) {
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

class GreedyLB final : public Strategy {
 public:
  std::string name() const override { return "GreedyLB"; }
  std::vector<Migration> assign(const Stats& s) override {
    StatsAux scratch;
    const StatsAux& aux = indexed(s, scratch);
    // Completion contributed by non-migratable chares (they stay put); a
    // shrink round leaves out those hosted at or above npes.
    std::vector<double> done(static_cast<std::size_t>(s.npes), 0.0);
    for (std::size_t k = 0; k < aux.pes.size(); ++k)
      if (aux.pes[k] < s.npes) done[static_cast<std::size_t>(aux.pes[k])] = aux.done_nonmig[k];
    std::vector<int> pes(static_cast<std::size_t>(s.npes));
    std::iota(pes.begin(), pes.end(), 0);
    MinCompletionAssigner assigner(s, pes, std::move(done));
    std::vector<int> target(s.chares.size());
    for (std::size_t i = 0; i < s.chares.size(); ++i) target[i] = s.chares[i].pe;
    for (std::uint32_t i : aux.desc_by_work) target[i] = assigner.place(s.chares[i].work);
    return to_migrations(s, target);
  }
};

class RefineLB final : public Strategy {
 public:
  explicit RefineLB(double tolerance) : tol_(tolerance) {}
  std::string name() const override { return "RefineLB"; }

  std::vector<Migration> assign(const Stats& s) override {
    StatsAux scratch;
    const StatsAux& aux = indexed(s, scratch);
    if (aux.pes.empty() || aux.pes.back() < s.npes) {
      std::vector<Migration> out;
      for (const auto& [rank, to] : refine(s, aux)) {
        const ChareInfo& c = s.chares[rank];
        if (to != c.pe) out.push_back(Migration{c.col, c.idx, c.pe, to});
      }
      return out;
    }
    // Shrink round: a chare hosted at or above npes counts toward PE npes-1
    // and is moved there unless refinement picks it for another PE.
    Stats clamped{s.npes, s.pe_speed, s.chares, {}};
    for (ChareInfo& c : clamped.chares) c.pe = std::min(c.pe, s.npes - 1);
    clamped.aux = index_of(clamped);
    std::vector<int> target(s.chares.size());
    for (std::size_t i = 0; i < s.chares.size(); ++i) target[i] = clamped.chares[i].pe;
    for (const auto& [rank, to] : refine(clamped, clamped.aux)) target[rank] = to;
    return to_migrations(s, target);
  }

 private:
  // Refinement over the index: lazy min/max completion heaps instead of
  // per-iteration O(P) extremum scans, and sorted per-PE bucket views
  // (materialized only for PEs the loop actually touches) instead of linear
  // fit scans + erase(find).  Returns the moved chares' (rank, final PE),
  // rank ascending; every host must be below npes.
  //
  // Equivalence with the from-scratch algorithm (tests/lb_reference.hpp,
  // pinned by the fuzz oracle):
  //  - done[] starts from the per-PE sums, which accumulate each PE's own
  //    chares in the same (canonical) order the from-scratch loop visits
  //    them, so every entry is bit-identical.
  //  - the heaps break value-ties toward the smaller PE, matching
  //    max_element/min_element returning the first extremum.
  //  - a view is sorted by (work desc, arrival asc) where arrival is the
  //    chare's position in the from-scratch per-PE list (canonical rank for
  //    initial members, a global counter for chares moved in later).  "Largest
  //    fitting, first in list among ties" is then the first element of the
  //    fitting suffix — found by partition_point, valid because the fit
  //    predicate done + w/speed <= cap is monotone in w even in FP — and
  //    "smallest, first in list among ties" is the first element of the
  //    minimal-work tail block.
  //  - the done[] update arithmetic is token-identical to the from-scratch loop.
  std::vector<std::pair<std::uint32_t, int>> refine(const Stats& s, const StatsAux& aux) {
    const auto n = static_cast<std::size_t>(s.npes);
    std::vector<double> done(n, 0.0);
    for (std::size_t k = 0; k < aux.pes.size(); ++k)
      done[static_cast<std::size_t>(aux.pes[k])] = aux.done_all[k];
    const double total_speed = s.pe_speed.sum_first(s.npes);
    const double target_time = aux.total_work / total_speed;

    struct Entry {
      double work;
      std::uint64_t arrival;
      std::uint32_t rank;
    };
    auto before = [](const Entry& a, const Entry& b) {
      if (a.work != b.work) return a.work > b.work;
      return a.arrival < b.arrival;
    };
    // Per-PE sorted views, built on demand; extras hold chares moved onto a
    // PE whose view is not materialized yet.
    std::vector<std::vector<Entry>> view(n);
    std::vector<std::vector<Entry>> extras(n);
    std::vector<char> built(n, 0);
    std::uint64_t arrival_counter = s.chares.size();
    auto bucket_of = [&](int pe) -> std::pair<std::uint32_t, std::uint32_t> {
      const auto it = std::lower_bound(aux.pes.begin(), aux.pes.end(), pe);
      if (it == aux.pes.end() || *it != pe) return {0, 0};
      const auto k = static_cast<std::size_t>(it - aux.pes.begin());
      return {aux.bucket_off[k], aux.bucket_off[k + 1]};
    };
    auto ensure_view = [&](std::size_t pe) -> std::vector<Entry>& {
      std::vector<Entry>& v = view[pe];
      if (!built[pe]) {
        built[pe] = 1;
        const auto [b, e] = bucket_of(static_cast<int>(pe));
        v.reserve((e - b) + extras[pe].size());
        for (std::uint32_t k = b; k < e; ++k) {
          const std::uint32_t r = aux.bucket_ranks[k];
          if (s.chares[r].migratable) v.push_back({s.chares[r].work, r, r});
        }
        std::sort(v.begin(), v.end(), before);
      }
      if (!extras[pe].empty()) {
        for (Entry& ex : extras[pe]) v.push_back(ex);
        extras[pe].clear();
        std::sort(v.begin(), v.end(), before);
      }
      return v;
    };

    // Lazy-deletion heaps keyed by completion; an entry is valid iff it
    // matches the authoritative done[].  Ties order toward the smaller PE.
    using HeapEntry = std::pair<double, int>;
    auto max_less = [](const HeapEntry& a, const HeapEntry& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    };
    auto min_less = [](const HeapEntry& a, const HeapEntry& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second > b.second;
    };
    std::vector<HeapEntry> seedv(n);
    for (std::size_t pe = 0; pe < n; ++pe) seedv[pe] = {done[pe], static_cast<int>(pe)};
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(max_less)> maxq(
        max_less, seedv);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(min_less)> minq(
        min_less, std::move(seedv));
    auto top_of = [&done](auto& q) {
      while (q.top().first != done[static_cast<std::size_t>(q.top().second)]) q.pop();
      return static_cast<std::size_t>(q.top().second);
    };

    std::vector<std::pair<std::uint32_t, int>> moves;  // (rank, final target)
    std::vector<std::uint32_t> final_slot(s.chares.size(), 0xffffffffu);
    for (int iter = 0; iter < 8 * s.npes; ++iter) {
      const std::size_t hot = top_of(maxq);
      const std::size_t cold = top_of(minq);
      if (done[hot] <= target_time * tol_) break;
      std::vector<Entry>& hv = ensure_view(hot);
      if (hv.empty()) break;  // nothing migratable on the hot PE
      const double cap = target_time * tol_;
      const double cold_speed = s.pe_speed[cold];
      auto does_not_fit = [&](const Entry& e) { return !(done[cold] + e.work / cold_speed <= cap); };
      auto it = std::partition_point(hv.begin(), hv.end(), does_not_fit);
      if (it == hv.end()) {
        // Nothing fits under the cap; move the smallest (first of the
        // minimal-work tail block = earliest arrival among ties).
        const double wmin = hv.back().work;
        it = std::partition_point(hv.begin(), hv.end(),
                                  [&](const Entry& e) { return e.work > wmin; });
      }
      const Entry picked = *it;
      hv.erase(it);
      const Entry moved{picked.work, arrival_counter++, picked.rank};
      if (built[cold]) {
        std::vector<Entry>& cv = ensure_view(cold);  // merge pending extras first
        auto pos = std::partition_point(cv.begin(), cv.end(),
                                        [&](const Entry& e) { return e.work >= moved.work; });
        cv.insert(pos, moved);
      } else {
        extras[cold].push_back(moved);
      }
      done[hot] -= picked.work / s.pe_speed[hot];
      done[cold] += picked.work / s.pe_speed[cold];
      maxq.push({done[hot], static_cast<int>(hot)});
      maxq.push({done[cold], static_cast<int>(cold)});
      minq.push({done[hot], static_cast<int>(hot)});
      minq.push({done[cold], static_cast<int>(cold)});
      if (final_slot[picked.rank] == 0xffffffffu) {
        final_slot[picked.rank] = static_cast<std::uint32_t>(moves.size());
        moves.push_back({picked.rank, static_cast<int>(cold)});
      } else {
        moves[final_slot[picked.rank]].second = static_cast<int>(cold);
      }
    }

    std::sort(moves.begin(), moves.end());
    return moves;
  }

  double tol_;
};

/// Two-level hierarchical balancing (HybridLB): balance group totals first,
/// then PEs within each group.
class HybridLB final : public Strategy {
 public:
  std::string name() const override { return "HybridLB"; }

  std::vector<Migration> assign(const Stats& s) override {
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

    StatsAux scratch;
    const std::vector<std::uint32_t>& order = indexed(s, scratch).desc_by_work;
    std::vector<int> chare_group(s.chares.size());
    for (std::size_t i = 0; i < s.chares.size(); ++i)
      chare_group[i] = group_of(std::min(s.chares[i].pe, s.npes - 1));
    for (std::uint32_t i : order) {
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
      for (std::uint32_t i : order)
        if (chare_group[i] == g) target[i] = assigner.place(s.chares[i].work);
    }
    return to_migrations(s, target);
  }
};

}  // namespace

std::unique_ptr<Strategy> make_greedy() { return std::make_unique<GreedyLB>(); }
std::unique_ptr<Strategy> make_refine(double tolerance) {
  return std::make_unique<RefineLB>(tolerance);
}
std::unique_ptr<Strategy> make_hybrid() { return std::make_unique<HybridLB>(); }

}  // namespace charm::lb
