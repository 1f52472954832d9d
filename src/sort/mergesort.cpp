// Bulk-synchronous multiway-merge sample sort: the "MPI" baseline of Fig 7.
//
// Structure (with a barrier after every phase, as a synchronous MPI code
// would have):  local sort -> every PE sends samples to PE 0 -> PE 0 sorts
// all P*s samples and broadcasts splitters -> all-to-all exchange -> local
// multiway merge -> barrier.  PE 0's sample processing and the P serialized
// message arrivals at PE 0 grow linearly with P — the bottleneck the paper's
// CHARM study measured (23% of runtime at 4096 cores).

#include <algorithm>
#include <cmath>

#include "sort/sorting.hpp"

namespace charm::sortlib {

using detail::SortState;

void Sorter::send_samples(const StartMsg&) {
  // The multiway-merge baseline ships EVERY key to rank 0, which merges the
  // full set to derive exact splitters — the root gather/merge is the
  // centralized bottleneck Fig 7 measures.
  KeysMsg m;
  m.from = my_pe();
  m.keys = keys;
  state_->proxy().on(0).send<&Sorter::collect_samples>(m);
}

void Sorter::collect_samples(const KeysMsg& m) {
  // Root-only: gather P sample chunks, then compute splitters centrally.
  // Raw pointer: the [st] closure below is stored into st->done_internal,
  // so an owning capture would make the state own itself (leak); the
  // callback only fires while the Sorter elements keep the state alive.
  auto* st = state_.get();
  st->samples.insert(st->samples.end(), m.keys.begin(), m.keys.end());
  if (++st->sample_chunks < st->npes) return;
  st->sample_chunks = 0;

  const double n = static_cast<double>(st->samples.size());
  std::sort(st->samples.begin(), st->samples.end());
  charm::charge(kCmpCost * n * std::max(1.0, std::log2(std::max(2.0, n))));

  const int P = st->npes;
  st->splitters.clear();
  for (int s = 1; s < P; ++s) {
    st->splitters.push_back(
        st->samples[st->samples.size() * static_cast<std::size_t>(s) /
                    static_cast<std::size_t>(P)]);
  }
  st->samples.clear();

  // Phase barrier, then the synchronous exchange (reusing the histsort
  // exchange/accept machinery — identical data movement in both sorts).
  st->done_internal = Callback::to_function([st](ReductionResult&&) {
    st->done.invoke(Runtime::current(), ReductionResult{});
  });
  st->proxy().broadcast<&Sorter::exchange>(SplitterMsg{st->splitters});
}

void Library::merge_sort(Callback done) {
  auto* st = state_.get();  // raw: the closure lives inside *st
  st->done = std::move(done);
  // local sort -> barrier -> samples to root.
  st->done_internal = Callback::to_function([st](ReductionResult&&) {
    st->proxy().broadcast<&Sorter::send_samples>(StartMsg{});
  });
  proxy_.broadcast<&Sorter::local_sort>(StartMsg{});
}

}  // namespace charm::sortlib
