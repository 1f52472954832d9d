#include "lb/distributed.hpp"

#include <algorithm>
#include <numeric>

#include "sim/rng.hpp"

namespace charm::lb {

namespace {
constexpr double kOverloadTol = 1.03;  ///< overloaded when load > avg * tol
constexpr int kProbesPerPe = 4;        ///< random targets each overloaded PE probes
}  // namespace

GossipResult gossip_assign(const Stats& s, std::uint64_t seed) {
  GossipResult result;
  const auto n = static_cast<std::size_t>(s.npes);

  std::vector<double> load(n, 0.0);
  std::vector<std::vector<std::size_t>> on_pe(n);
  for (std::size_t i = 0; i < s.chares.size(); ++i) {
    const ChareInfo& c = s.chares[i];
    const auto pe = static_cast<std::size_t>(std::min(c.pe, s.npes - 1));
    load[pe] += c.work / s.pe_speed[pe];
    if (c.migratable) on_pe[pe].push_back(i);
  }
  const double avg = std::accumulate(load.begin(), load.end(), 0.0) / s.npes;
  if (avg <= 0) return result;

  // Largest chares first so a single transfer makes real progress.
  for (auto& lst : on_pe) {
    std::sort(lst.begin(), lst.end(), [&](std::size_t a, std::size_t b) {
      if (s.chares[a].work != s.chares[b].work) return s.chares[a].work > s.chares[b].work;
      return a < b;
    });
  }

  sim::Rng rng(seed);
  for (std::size_t pe = 0; pe < n; ++pe) {
    if (load[pe] <= avg * kOverloadTol) continue;
    // Probe a handful of random PEs; each accepting target takes chares until
    // it reaches the average or we run out of excess.
    for (int probe = 0; probe < kProbesPerPe && load[pe] > avg * kOverloadTol; ++probe) {
      const auto target = static_cast<std::size_t>(rng.next_below(n));
      ++result.probes;
      if (target == pe || load[target] >= avg) continue;  // probe declined
      auto& lst = on_pe[pe];
      for (auto it = lst.begin(); it != lst.end() && load[pe] > avg * kOverloadTol;) {
        const std::size_t id = *it;
        const double dt_src = s.chares[id].work / s.pe_speed[pe];
        const double dt_dst = s.chares[id].work / s.pe_speed[target];
        // Accept when the target stays strictly below the source's current
        // load (work-stealing improvement criterion); otherwise try smaller.
        if (load[target] + dt_dst >= load[pe]) {
          ++it;
          continue;
        }
        result.migrations.push_back(Migration{s.chares[id].col, s.chares[id].idx,
                                              static_cast<int>(pe), static_cast<int>(target)});
        load[pe] -= dt_src;
        load[target] += dt_dst;
        it = lst.erase(it);
      }
    }
  }
  return result;
}

}  // namespace charm::lb
