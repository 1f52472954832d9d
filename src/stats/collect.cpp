#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

#include "stats/critical_path.hpp"
#include "stats/report.hpp"

namespace stats {

void Histogram::add(std::uint64_t v) {
  std::size_t bucket = 0;
  while (v != 0) {
    ++bucket;
    v >>= 1;
  }
  if (bucket >= buckets.size()) buckets.resize(bucket + 1, 0);
  ++buckets[bucket];
  ++total;
}

double Report::total_busy() const {
  double t = 0;
  for (const PeUsage& p : pes) t += p.busy;
  return t;
}

double Report::total_exec() const {
  double t = 0;
  for (const PeUsage& p : pes) t += p.exec;
  return t;
}

std::uint64_t Report::total_execs() const {
  std::uint64_t n = 0;
  for (const PeUsage& p : pes) n += p.execs;
  return n;
}

namespace {

ImbalanceStats imbalance_of(const std::vector<double>& busy) {
  ImbalanceStats im;
  if (busy.empty()) return im;
  double sum = 0;
  for (double b : busy) {
    im.busy_max = std::max(im.busy_max, b);
    sum += b;
  }
  im.busy_avg = sum / static_cast<double>(busy.size());
  double var = 0;
  for (double b : busy) var += (b - im.busy_avg) * (b - im.busy_avg);
  im.busy_sigma = std::sqrt(var / static_cast<double>(busy.size()));
  im.ratio = im.busy_avg > 0 ? im.busy_max / im.busy_avg : 0;
  return im;
}

/// Seconds of entry (busy) and handler (exec) spans per (PE, window) cell,
/// indexed [pe * nwin + w].
struct WindowSums {
  std::vector<double> busy;
  std::vector<double> exec;
};

// The one place exec and entry spans are split into time windows: window w
// is [bounds[w], bounds[w+1]) for ascending `bounds`, each span is cut to
// [bounds.front(), bounds.back()), and every cell sums its overlaps in log
// order.  Spans on PEs outside [0, npes) are skipped.
WindowSums fold_windows(const std::vector<trace::Event>& events, int npes,
                        const std::vector<double>& bounds) {
  const std::size_t nwin = bounds.size() - 1;
  WindowSums s;
  s.busy.assign(static_cast<std::size_t>(npes) * nwin, 0);
  s.exec.assign(static_cast<std::size_t>(npes) * nwin, 0);
  for (const trace::Event& e : events) {
    if (e.kind != trace::Kind::kExec && e.kind != trace::Kind::kEntry) continue;
    if (e.pe < 0 || e.pe >= npes) continue;
    double lo = std::max(e.begin, bounds.front());
    const double hi = std::min(e.end, bounds.back());
    if (hi <= lo) continue;
    double* cells = (e.kind == trace::Kind::kExec ? s.exec : s.busy).data() +
                    static_cast<std::size_t>(e.pe) * nwin;
    auto it = std::upper_bound(bounds.begin(), bounds.end(), lo);
    std::size_t w = static_cast<std::size_t>(it - bounds.begin()) - 1;
    while (true) {
      const double top = std::min(hi, bounds[w + 1]);
      if (top > lo) cells[w] += top - lo;
      if (hi <= bounds[w + 1]) break;
      lo = bounds[w + 1];
      ++w;
    }
  }
  return s;
}

}  // namespace

Report collect(const std::vector<trace::Event>& events, int npes) {
  Report r;
  r.npes = std::max(npes, 0);
  r.events = events.size();
  r.pes.resize(static_cast<std::size_t>(r.npes));

  // ---- pass A: makespan and phase boundaries --------------------------------
  for (const trace::Event& e : events) {
    if (e.kind == trace::Kind::kExec) r.makespan = std::max(r.makespan, e.end);
  }
  // The run is segmented at the end of every phase span; each boundary
  // carries the name of the phase that produced it.
  std::map<double, std::string> boundary_names;
  for (const trace::Event& e : events) {
    if (e.kind != trace::Kind::kPhase) continue;
    if (e.end <= 0 || e.end >= r.makespan) continue;
    boundary_names.emplace(e.end, sim::phase_name(e.phase));  // first writer wins
  }
  std::vector<double> bounds;  // segment start times
  bounds.push_back(0);
  r.phases.emplace_back();
  r.phases.back().name = "start";
  r.phases.back().t0 = 0;
  for (const auto& [t, name] : boundary_names) {
    r.phases.back().t1 = t;
    bounds.push_back(t);
    r.phases.emplace_back();
    r.phases.back().name = name;
    r.phases.back().t0 = t;
  }
  r.phases.back().t1 = r.makespan;
  if (r.phases.size() == 1) r.phases.front().name = "run";
  const std::size_t nseg = r.phases.size();
  bounds.push_back(std::numeric_limits<double>::infinity());  // last segment is open-ended
  const WindowSums seg = fold_windows(events, r.npes, bounds);

  // ---- pass B: everything else ----------------------------------------------
  std::map<std::tuple<int, int, int>, EntryUsage> entries;  // (col, ep, pe)
  std::map<std::pair<int, int>, CommCell> comm;             // (src, dst)
  // Entries recorded since the last exec span on each PE, for overhead
  // attribution (the machine logs a span's entries before the span itself).
  struct PendingEntry {
    int col, ep;
    double dur;
  };
  std::vector<std::vector<PendingEntry>> pending(static_cast<std::size_t>(r.npes));

  for (const trace::Event& e : events) {
    switch (e.kind) {
      case trace::Kind::kEntry: {
        const double dt = e.end - e.begin;
        EntryUsage& u = entries[{e.a, e.b, e.pe}];
        if (u.calls == 0) {
          u.pe = e.pe;
          u.col = e.a;
          u.ep = e.b;
          u.grain_min = dt;
          u.grain_max = dt;
        } else {
          u.grain_min = std::min(u.grain_min, dt);
          u.grain_max = std::max(u.grain_max, dt);
        }
        ++u.calls;
        u.busy += dt;
        r.entry_ns_log2.add(static_cast<std::uint64_t>(std::llround(dt * 1e9)));
        if (e.pe >= 0 && e.pe < r.npes) {
          r.pes[static_cast<std::size_t>(e.pe)].busy += dt;
          pending[static_cast<std::size_t>(e.pe)].push_back(PendingEntry{e.a, e.b, dt});
        }
        break;
      }
      case trace::Kind::kExec: {
        if (e.pe < 0 || e.pe >= r.npes) break;
        const std::size_t pe = static_cast<std::size_t>(e.pe);
        const double span = e.end - e.begin;
        PeUsage& p = r.pes[pe];
        ++p.execs;
        p.exec += span;
        // Attribute the span to the entry methods that ran inside it; the
        // busy/exec gap (scheduling, sends, runtime bookkeeping) is split
        // evenly across them.  Entry-less spans land on the (-1, -1) key.
        std::vector<PendingEntry>& pend = pending[pe];
        if (pend.empty()) {
          EntryUsage& u = entries[{-1, -1, e.pe}];
          if (u.calls == 0) {
            u.pe = e.pe;
            u.grain_min = span;
            u.grain_max = span;
          } else {
            u.grain_min = std::min(u.grain_min, span);
            u.grain_max = std::max(u.grain_max, span);
          }
          ++u.calls;
          u.busy += 0;
          u.exec += span;
        } else {
          double inside = 0;
          for (const PendingEntry& pe_ent : pend) inside += pe_ent.dur;
          const double share = (span - inside) / static_cast<double>(pend.size());
          for (const PendingEntry& pe_ent : pend) {
            entries[{pe_ent.col, pe_ent.ep, e.pe}].exec += pe_ent.dur + share;
          }
          pend.clear();
        }
        break;
      }
      case trace::Kind::kSend: {
        ++r.messages.sends;
        r.messages.bytes += e.bytes;
        const int hops = e.b > 0 ? e.b : 0;
        r.messages.hops += static_cast<std::uint64_t>(hops);
        const double lat = e.end - e.begin;
        r.messages.total_latency += lat;
        r.messages.max_latency = std::max(r.messages.max_latency, lat);
        r.messages.size_log2.add(e.bytes);
        r.messages.hops_log2.add(static_cast<std::uint64_t>(hops));
        if (e.pe >= 0 && e.pe < r.npes) {
          PeUsage& p = r.pes[static_cast<std::size_t>(e.pe)];
          ++p.msgs_sent;
          p.bytes_sent += e.bytes;
        }
        if (e.pe >= 0 && e.pe < r.npes && e.a >= 0 && e.a < r.npes) {
          CommCell& c = comm[{e.pe, e.a}];
          c.src = e.pe;
          c.dst = e.a;
          ++c.msgs;
          c.bytes += e.bytes;
        }
        break;
      }
      case trace::Kind::kRecv: {
        const double wait = e.end - e.begin;
        r.messages.total_queue_wait += wait;
        if (e.pe >= 0 && e.pe < r.npes) {
          PeUsage& p = r.pes[static_cast<std::size_t>(e.pe)];
          ++p.msgs_recv;
          p.bytes_recv += e.bytes;
          p.queue_wait += wait;
        }
        break;
      }
      case trace::Kind::kIdle:
      case trace::Kind::kPhase:
        break;
    }
  }

  for (PeUsage& p : r.pes) p.idle = std::max(0.0, r.makespan - p.exec);

  r.entries.reserve(entries.size());
  for (auto& [key, u] : entries) r.entries.push_back(u);
  r.comm.reserve(comm.size());
  for (auto& [key, c] : comm) r.comm.push_back(c);

  // ---- imbalance: whole run and per phase -----------------------------------
  {
    std::vector<double> busy(static_cast<std::size_t>(r.npes), 0);
    for (int pe = 0; pe < r.npes; ++pe) busy[static_cast<std::size_t>(pe)] = r.pes[static_cast<std::size_t>(pe)].busy;
    r.imbalance = imbalance_of(busy);
    for (std::size_t w = 0; w < nseg; ++w) {
      PhaseStats& ph = r.phases[w];
      for (int pe = 0; pe < r.npes; ++pe) {
        const std::size_t cell = static_cast<std::size_t>(pe) * nseg + w;
        busy[static_cast<std::size_t>(pe)] = seg.busy[cell];
        ph.busy += seg.busy[cell];
        ph.exec += seg.exec[cell];
      }
      ph.idle = std::max(0.0, static_cast<double>(r.npes) * (ph.t1 - ph.t0) - ph.exec);
      ph.imbalance = imbalance_of(busy);
    }
  }

  r.critical_path = critical_path(events, r.npes);
  return r;
}

TimeProfile time_profile(const std::vector<trace::Event>& events, int npes, int nbins,
                         double t_end) {
  if (npes <= 0 || nbins <= 0)
    throw std::invalid_argument("time_profile: npes and nbins must be positive");

  TimeProfile p;
  p.npes = npes;
  p.nbins = nbins;
  if (t_end < 0) {
    for (const trace::Event& e : events)
      if (e.kind == trace::Kind::kExec) t_end = std::max(t_end, e.end);
    if (t_end <= 0) t_end = 1.0;  // empty trace: one all-idle profile
  }
  p.t1 = t_end;
  p.bin_width = (p.t1 - p.t0) / nbins;

  std::vector<double> bounds(static_cast<std::size_t>(nbins) + 1);
  for (int b = 0; b < nbins; ++b) bounds[static_cast<std::size_t>(b)] = p.t0 + b * p.bin_width;
  bounds.back() = p.t1;
  const WindowSums bins = fold_windows(events, npes, bounds);

  p.pe_bins.resize(bins.busy.size());
  for (std::size_t i = 0; i < p.pe_bins.size(); ++i) {
    const double exec_f = std::min(1.0, bins.exec[i] / p.bin_width);
    // busy ≤ exec: fp noise, and entry spans that nest inside another entry
    // span (each counted, as in collect), can push the entry sum past exec.
    const double busy_f = std::min(exec_f, bins.busy[i] / p.bin_width);
    p.pe_bins[i] = ProfileBin{busy_f, exec_f - busy_f, 1.0 - exec_f};
  }

  p.mean.assign(static_cast<std::size_t>(nbins), {});
  for (int b = 0; b < nbins; ++b) {
    ProfileBin& m = p.mean[static_cast<std::size_t>(b)];
    for (int pe = 0; pe < npes; ++pe) {
      const ProfileBin& bin = p.at(pe, b);
      m.busy += bin.busy;
      m.overhead += bin.overhead;
      m.idle += bin.idle;
    }
    m.busy /= npes;
    m.overhead /= npes;
    m.idle /= npes;
  }
  return p;
}

}  // namespace stats
