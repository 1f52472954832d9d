// SlabPool (runtime/slab_pool.hpp): element objects and the nodes and buckets
// of every PE's `elems` map live in its slots.  Two properties carry the
// design: a pooled `elems` map iterates exactly like a default-allocator
// std::unordered_map (that order reaches virtual time, DESIGN.md §12), and
// every slot an element takes comes back when it migrates, is destroyed, or
// its runtime is torn down.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "runtime/charm.hpp"
#include "runtime/collection.hpp"
#include "runtime/slab_pool.hpp"
#include "sim/rng.hpp"

#include "test_util.hpp"

namespace {

using charm::ElemMap;
using charm::ObjIndex;
using charm::SlabPool;

using StdElemMap = std::unordered_map<ObjIndex, std::unique_ptr<charm::ArrayElementBase>,
                                      charm::ObjIndexHash>;

template <class Map>
std::vector<ObjIndex> keys_in_order(const Map& m) {
  std::vector<ObjIndex> keys;
  for (const auto& [ix, obj] : m) keys.push_back(ix);
  return keys;
}

TEST(SlabPool, PooledElemsMapVisitsKeysInDefaultAllocatorOrder) {
  // Fuzzed insert/erase sequences, including growth through several rehash
  // steps (13 -> 29 -> ... buckets) and erasures that empty the map, drive a
  // pooled map and a default-allocator map in lockstep.  The runtime's own
  // operations are used: operator[] to install, find + erase to remove.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    ElemMap pooled;
    StdElemMap reference;
    std::vector<ObjIndex> live;
    const int ops = 200 + static_cast<int>(rng.next_below(800));
    for (int op = 0; op < ops; ++op) {
      const bool erase = !live.empty() && rng.next_below(100) < 30;
      if (erase) {
        const std::size_t at = rng.next_below(live.size());
        const ObjIndex ix = live[at];
        live[at] = live.back();
        live.pop_back();
        pooled.erase(pooled.find(ix));
        reference.erase(reference.find(ix));
      } else {
        // Narrow key ranges make collisions and re-inserts of erased keys.
        const ObjIndex ix{rng.next_below(seed % 2 == 0 ? 64 : 4096), rng.next_below(3)};
        if (reference.find(ix) == reference.end()) live.push_back(ix);
        pooled[ix] = nullptr;
        reference[ix] = nullptr;
      }
      ASSERT_EQ(pooled.bucket_count(), reference.bucket_count()) << "op " << op;
      ASSERT_EQ(keys_in_order(pooled), keys_in_order(reference)) << "op " << op;
    }
  }
}

TEST(SlabPool, FreedSlotIsReusedAndLargeRequestsAreCounted) {
  const std::size_t start = SlabPool::live_bytes();
  void* a = SlabPool::allocate(120);
  EXPECT_EQ(SlabPool::live_bytes(), start + 120);
  void* b = SlabPool::allocate(113);  // same 8-byte class as 120
  EXPECT_EQ(SlabPool::live_bytes(), start + 240);
  SlabPool::deallocate(a, 120);
  EXPECT_EQ(SlabPool::allocate(117), a) << "the freed slot of the class comes back first";
  void* big = SlabPool::allocate(SlabPool::kMaxSlotBytes + 1);
  EXPECT_EQ(SlabPool::live_bytes(), start + 240 + SlabPool::kMaxSlotBytes + 1);
  SlabPool::deallocate(big, SlabPool::kMaxSlotBytes + 1);
  SlabPool::deallocate(a, 117);
  SlabPool::deallocate(b, 113);
  EXPECT_EQ(SlabPool::live_bytes(), start);
}

struct HopMsg {
  int pe = 0;
  void pup(pup::Er& p) { p | pe; }
};

class Tenant : public charm::ArrayElement<Tenant, std::int32_t> {
 public:
  Tenant() = default;
  explicit Tenant(const HopMsg& m) : payload{static_cast<double>(m.pe)} {}
  void hop(const HopMsg& m) { migrate_to(m.pe); }
  void leave() { charm::Runtime::current().destroy_self(); }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    for (double& d : payload) p | d;
  }
  double payload[6] = {};
};

TEST(SlabPool, ElementLifecycleReturnsEverySlot) {
  const std::size_t start = SlabPool::live_bytes();
  {
    charmtest::Harness h(4);
    auto arr = charm::ArrayProxy<Tenant>::create(h.rt);
    for (int i = 0; i < 32; ++i) arr.seed(i, i % 4);
    const std::size_t seeded = SlabPool::live_bytes();
    EXPECT_GE(seeded, start + 32 * sizeof(Tenant));
    EXPECT_EQ(h.rt.memory_footprint().element_bytes, seeded);

    // Migrations free the source object and allocate its copy on arrival.
    h.rt.on_pe(0, [&] {
      for (int i = 0; i < 32; i += 3) arr[i].send<&Tenant::hop>(HopMsg{(i + 1) % 4});
    });
    h.machine.run();
    const auto& col = h.rt.collection(arr.id());
    EXPECT_EQ(col.total_elements, 32);

    // A destroyed element's slot is the next one its size class hands out:
    // the inserted element lands in it.
    int victim_pe = -1;
    const Tenant* victim = h.find<Tenant>(arr.id(), 5, &victim_pe);
    ASSERT_NE(victim, nullptr);
    const void* slot = victim;
    h.rt.on_pe(0, [&] { arr[5].send<&Tenant::leave>(); });
    h.machine.run();
    EXPECT_EQ(h.find<Tenant>(arr.id(), 5), nullptr);
    h.rt.on_pe(0, [&] { arr.insert(100, HopMsg{7}, victim_pe); });
    h.machine.run();
    const Tenant* inserted = h.find<Tenant>(arr.id(), 100);
    ASSERT_NE(inserted, nullptr);
    EXPECT_EQ(static_cast<const void*>(inserted), slot);
    EXPECT_EQ(inserted->payload[0], 7.0);
    EXPECT_EQ(col.total_elements, 32);
    EXPECT_EQ(h.rt.outstanding(), 0);
  }
  EXPECT_EQ(SlabPool::live_bytes(), start) << "tearing the runtime down frees every slot";
}

}  // namespace
