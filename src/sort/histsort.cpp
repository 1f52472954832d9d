// Histogram sort implementation plus the shared Sorter/Library machinery.

#include <algorithm>
#include <cmath>

#include "sort/sorting.hpp"

namespace charm::sortlib {

using detail::SortState;

// ---- Sorter entries --------------------------------------------------------------

void Sorter::local_sort(const StartMsg&) {
  const double n = static_cast<double>(keys.size());
  std::sort(keys.begin(), keys.end());
  charm::charge(kCmpCost * n * std::max(1.0, std::log2(std::max(2.0, n))));
  // Report local extrema: {min, -max} under elementwise kMin.
  const double mn = keys.empty() ? 9e15 : static_cast<double>(keys.front());
  const double mx = keys.empty() ? 0 : static_cast<double>(keys.back());
  contribute(std::vector<double>{mn, -mx}, ReduceOp::kMin, state_->done_internal);
}

void Sorter::count(const SplitterMsg& m) {
  // Bucket counts via binary search per splitter boundary.
  std::vector<double> counts(m.splitters.size() + 1, 0.0);
  std::size_t prev = 0;
  for (std::size_t s = 0; s < m.splitters.size(); ++s) {
    const auto it = std::upper_bound(keys.begin(), keys.end(), m.splitters[s]);
    const auto pos = static_cast<std::size_t>(it - keys.begin());
    counts[s] = static_cast<double>(pos - prev);
    prev = pos;
  }
  counts[m.splitters.size()] = static_cast<double>(keys.size() - prev);
  charm::charge(kCmpCost * static_cast<double>(m.splitters.size()) *
                std::max(1.0, std::log2(std::max(2.0, static_cast<double>(keys.size())))));
  contribute(counts, ReduceOp::kSum, state_->done_internal);
}

void Sorter::exchange(const SplitterMsg& m) {
  const int P = state_->npes;
  auto proxy = state_->proxy();
  exchange_sent_ = true;
  std::size_t prev = 0;
  for (int dest = 0; dest < P; ++dest) {
    std::size_t end;
    if (dest < P - 1) {
      const auto it = std::upper_bound(keys.begin(), keys.end(),
                                       m.splitters[static_cast<std::size_t>(dest)]);
      end = static_cast<std::size_t>(it - keys.begin());
    } else {
      end = keys.size();
    }
    end = std::max(end, prev);  // splitters are clamped monotone, belt+braces
    KeysMsg chunk;
    chunk.from = my_pe();
    chunk.keys.assign(keys.begin() + static_cast<std::ptrdiff_t>(prev),
                      keys.begin() + static_cast<std::ptrdiff_t>(end));
    prev = end;
    proxy.on(dest).send<&Sorter::accept>(chunk);
  }
  keys.clear();
}

void Sorter::accept(const KeysMsg& m) {
  incoming_.push_back(m.keys);
  ++chunks_received_;
  finish_exchange_if_done();
}

void Sorter::finish_exchange_if_done() {
  // Chunks from fast senders may land before our own exchange() broadcast
  // leg; wait for both.
  if (!exchange_sent_ || chunks_received_ < state_->npes) return;
  chunks_received_ = 0;
  exchange_sent_ = false;
  // k-way merge of sorted runs (runs arrive sorted because senders were).
  std::size_t total = 0;
  for (const auto& run : incoming_) total += run.size();
  keys.clear();
  keys.reserve(total);
  for (const auto& run : incoming_) keys.insert(keys.end(), run.begin(), run.end());
  incoming_.clear();
  std::sort(keys.begin(), keys.end());  // stand-in for the k-way merge
  charm::charge(kCmpCost * static_cast<double>(total) *
                std::max(1.0, std::log2(static_cast<double>(std::max(2, state_->npes)))));
  contribute(state_->done_internal);
}

// ---- Library / histsort driver ----------------------------------------------------

Library::Library(Runtime& rt) : rt_(rt), state_(std::make_shared<SortState>()) {
  state_->npes = rt.npes();
  auto st = state_;
  proxy_ = GroupProxy<Sorter>::create(rt, [st](int) { return std::make_unique<Sorter>(st); });
  state_->col = proxy_.id();
}

void Library::fill_random(std::uint64_t seed, std::size_t keys_per_pe) {
  for (int pe = 0; pe < rt_.npes(); ++pe) {
    auto* s = static_cast<Sorter*>(
        rt_.collection(proxy_.id()).find(pe, IndexTraits<std::int32_t>::encode(pe)));
    sim::Rng rng(sim::derive_seed(seed, static_cast<std::uint64_t>(pe)));
    s->keys.resize(keys_per_pe);
    for (auto& k : s->keys) k = rng.next_u64() & ((1ull << 48) - 1);
  }
}

const std::vector<std::uint64_t>& Library::keys_on(int pe) const {
  auto* s = static_cast<Sorter*>(
      rt_.collection(proxy_.id()).find(pe, IndexTraits<std::int32_t>::encode(pe)));
  return s->keys;
}

std::uint64_t Library::total_keys() const {
  std::uint64_t n = 0;
  for (int pe = 0; pe < rt_.npes(); ++pe) n += keys_on(pe).size();
  return n;
}

bool Library::validate() const {
  std::uint64_t prev = 0;
  std::size_t run = 0, longest_run = 0, largest_block = 0;
  for (int pe = 0; pe < rt_.npes(); ++pe) {
    const std::vector<std::uint64_t>& block = keys_on(pe);
    largest_block = std::max(largest_block, block.size());
    for (std::uint64_t k : block) {
      if (k < prev) return false;
      run = run > 0 && k == prev ? run + 1 : 1;
      longest_run = std::max(longest_run, run);
      prev = k;
    }
  }
  const double ideal = static_cast<double>(total_keys()) / rt_.npes();
  return static_cast<double>(largest_block) <=
         kBalanceTolerance * ideal + static_cast<double>(longest_run);
}

namespace {

// The phase-transition helpers take the state as a raw pointer on purpose:
// the [st] closures below are stored into st->done_internal, i.e. inside the
// state itself, and capturing the owning shared_ptr there would make the
// state own itself (an unreclaimable cycle).  The callbacks can only fire
// while the Library and its Sorter elements (the real owners) are alive.
void refine_and_continue(SortState* st, const std::vector<double>& counts);

void start_probing(SortState* st, double key_min, double key_max) {
  const int P = st->npes;
  const auto n = static_cast<std::size_t>(P - 1);
  st->splitters.resize(n);
  // Every bracket starts as the whole key range, counted as holding no keys
  // at its bottom and all keys at its top (the total the first probe reports).
  st->lo.assign(n, static_cast<std::uint64_t>(key_min));
  st->hi.assign(n, static_cast<std::uint64_t>(key_max));
  st->cum_lo.assign(n, 0);
  st->cum_hi.assign(n, 0);
  for (int s = 0; s < P - 1; ++s) {
    st->splitters[static_cast<std::size_t>(s)] = static_cast<std::uint64_t>(
        key_min + (key_max - key_min) * (s + 1) / static_cast<double>(P));
  }
  st->rounds_left = kProbeRounds;
  // Issue the first histogram probe.
  st->done_internal = Callback::to_function([st](ReductionResult&& r) {
    refine_and_continue(st, r.nums);
  });
  st->proxy().broadcast<&Sorter::count>(SplitterMsg{st->splitters});
}

void begin_exchange(SortState* st) {
  // Barrier contribution from every PE's merge completes the sort.
  st->done_internal = Callback::to_function([st](ReductionResult&&) {
    st->done.invoke(Runtime::current(), ReductionResult{});
  });
  st->proxy().broadcast<&Sorter::exchange>(SplitterMsg{st->splitters});
}

void refine_and_continue(SortState* st, const std::vector<double>& counts) {
  // Root-side refinement: narrow each splitter's bracket with the probe's
  // cumulative count, then probe where the bracket's two measured counts
  // interpolate to the ideal rank.
  Runtime::current().charge(1e-6 + 0.2e-6 * static_cast<double>(counts.size()));
  const int P = st->npes;
  double total = 0;
  for (double c : counts) total += c;
  const bool first_probe = st->rounds_left == kProbeRounds;

  double cum = 0;
  std::vector<double> cum_at(static_cast<std::size_t>(P - 1), 0);
  for (int s = 0; s < P - 1; ++s) {
    cum += counts[static_cast<std::size_t>(s)];
    cum_at[static_cast<std::size_t>(s)] = cum;
  }
  --st->rounds_left;
  if (st->rounds_left <= 0) {
    begin_exchange(st);
    return;
  }
  for (int s = 0; s < P - 1; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const double ideal = total * (s + 1) / static_cast<double>(P);
    auto& sp = st->splitters[i];
    if (first_probe) st->cum_hi[i] = total;
    if (cum_at[i] < ideal) {
      st->lo[i] = sp;
      st->cum_lo[i] = cum_at[i];
    } else {
      st->hi[i] = sp;
      st->cum_hi[i] = cum_at[i];
    }
    const std::uint64_t lo = st->lo[i], hi = st->hi[i];
    const double span = st->cum_hi[i] - st->cum_lo[i];
    const double frac = span > 0 ? (ideal - st->cum_lo[i]) / span : 0.5;
    // Keys are < 2^48, so the bracket width converts to double exactly.
    const auto step = static_cast<std::uint64_t>(frac * static_cast<double>(hi - lo));
    sp = std::min(hi, lo + std::max<std::uint64_t>(step, 1));
  }
  // Independent brackets can momentarily cross; keep the splitter vector
  // monotone so bucket boundaries stay well-formed.
  for (std::size_t s2 = 1; s2 < st->splitters.size(); ++s2)
    st->splitters[s2] = std::max(st->splitters[s2], st->splitters[s2 - 1]);
  st->done_internal = Callback::to_function([st](ReductionResult&& r) {
    refine_and_continue(st, r.nums);
  });
  st->proxy().broadcast<&Sorter::count>(SplitterMsg{st->splitters});
}

}  // namespace

void Library::hist_sort(Callback done) {
  auto* st = state_.get();  // raw: the closure lives inside *st (see above)
  st->done = std::move(done);
  st->done_internal = Callback::to_function([st](ReductionResult&& r) {
    // r = {min, -max} under kMin.
    start_probing(st, r.num(0), -r.num(1));
  });
  proxy_.broadcast<&Sorter::local_sort>(StartMsg{});
}

}  // namespace charm::sortlib
