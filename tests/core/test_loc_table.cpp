// LocTable, the flat per-PE home/cache table (DESIGN.md §12): a seeded
// differential fuzz against std::unordered_map, backward-shift erase across
// the end of the slot array, and one PE's home set at P = 65536.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "runtime/loc_table.hpp"

namespace {

using charm::LocTable;
using charm::ObjIndex;
using charm::ObjIndexHash;
using Ref = std::unordered_map<ObjIndex, int, ObjIndexHash>;

std::uint64_t mix(std::uint64_t x) {  // splitmix64
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Same size and every reference key maps to its value: with no duplicate
/// keys in the table, that makes the two key sets equal.
void expect_same(const LocTable<int>& t, const Ref& ref) {
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const int* got = t.find(k);
    ASSERT_NE(got, nullptr) << "missing key " << k.a << "," << k.b;
    ASSERT_EQ(*got, v);
  }
  // Load factor ≤ 7/8, and an empty table owns no storage.
  ASSERT_LE(t.size() * 8, t.capacity() * 7);
  ASSERT_EQ(t.memory_bytes(), t.capacity() * sizeof(LocTable<int>::Slot));
}

/// Random insert/assign/find/erase/clear over `keys`, checked step by step.
void fuzz(const std::vector<ObjIndex>& keys, std::uint64_t seed, int ops) {
  LocTable<int> t;
  Ref ref;
  std::uint64_t s = seed;
  for (int i = 0; i < ops; ++i) {
    s = mix(s);
    const ObjIndex& k = keys[s % keys.size()];
    const int v = static_cast<int>(s >> 40);
    switch ((s >> 32) % 16) {
      case 0: case 1: case 2: case 3: case 4: case 5: case 6:  // insert/assign
        t[k] = v;
        ref[k] = v;
        break;
      case 7: case 8: case 9: case 10: case 11: {  // erase
        ASSERT_EQ(t.erase(k), ref.erase(k) == 1);
        break;
      }
      case 12: {  // operator[] on a possibly absent key default-inserts
        const int got = t[k];
        const int want = ref[k];
        ASSERT_EQ(got, want);
        break;
      }
      case 15:
        if (((s >> 8) & 0xFF) == 0) {  // rare: clear drops storage too
          t.clear();
          ref.clear();
          ASSERT_EQ(t.capacity(), 0u);
        }
        break;
      default: {  // find
        const int* got = t.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(t.size(), ref.size());
    if (i % 64 == 0) expect_same(t, ref);
  }
  expect_same(t, ref);
  // Drain in a random order so every erase shifts a different neighbourhood.
  std::vector<ObjIndex> live;
  for (const auto& [k, v] : ref) live.push_back(k);
  std::sort(live.begin(), live.end(), [seed](const ObjIndex& x, const ObjIndex& y) {
    return mix(x.a ^ x.b ^ seed) < mix(y.a ^ y.b ^ seed);
  });
  for (const ObjIndex& k : live) {
    ASSERT_TRUE(t.erase(k));
    ref.erase(k);
    ASSERT_FALSE(t.erase(k));
    expect_same(t, ref);
  }
}

/// Keys whose ObjIndexHash is ≡ r (mod 65536): one PE's home set at P = 65536.
std::vector<ObjIndex> one_pe_home_set(std::size_t n, std::uint64_t r) {
  std::vector<ObjIndex> keys;
  for (std::uint64_t a = 0; keys.size() < n; ++a) {
    const ObjIndex k{a, 0};
    if (ObjIndexHash{}(k) % 65536 == r) keys.push_back(k);
  }
  return keys;
}

TEST(LocTable, EmptyTableOwnsNothing) {
  LocTable<int> t;
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.memory_bytes(), 0u);
  EXPECT_EQ(t.find(ObjIndex{}), nullptr);
  EXPECT_FALSE(t.erase(ObjIndex{}));
  t[ObjIndex{}] = 3;  // the all-zero key is an ordinary key
  EXPECT_EQ(t.capacity(), LocTable<int>::kMinCapacity);
  ASSERT_NE(t.find(ObjIndex{}), nullptr);
  EXPECT_EQ(*t.find(ObjIndex{}), 3);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.memory_bytes(), 0u);
  EXPECT_EQ(t.find(ObjIndex{}), nullptr);
}

TEST(LocTable, GrowsAtSevenEighthsLoad) {
  LocTable<int> t;
  std::size_t grows = 0, cap = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    t[ObjIndex{i, i}] = static_cast<int>(i);
    if (t.capacity() != cap) {
      ++grows;
      cap = t.capacity();
    }
    ASSERT_LE(t.size() * 8, t.capacity() * 7);
    // Doubling only once the smaller table would pass 7/8.
    if (t.capacity() > LocTable<int>::kMinCapacity) {
      ASSERT_GT(t.size() * 8, t.capacity() / 2 * 7);
    }
  }
  EXPECT_EQ(t.capacity(), 8192u);
  EXPECT_EQ(grows, 12u);  // 4, 8, ..., 8192
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_NE(t.find(ObjIndex{i, i}), nullptr);
    ASSERT_EQ(*t.find(ObjIndex{i, i}), static_cast<int>(i));
  }
}

TEST(LocTable, DifferentialFuzzAgainstUnorderedMap) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 0xC0FFEEull}) {
    // A small universe keeps finds and erases hitting live keys; a large one
    // grows the table through several rehashes.
    for (std::size_t universe : {6u, 40u, 3000u}) {
      std::vector<ObjIndex> keys;
      for (std::size_t i = 0; i < universe; ++i)
        keys.push_back(ObjIndex{mix(seed * 131 + i), i % 3});
      SCOPED_TRACE(testing::Message() << "seed " << seed << " universe " << universe);
      fuzz(keys, seed, 20000);
    }
  }
}

TEST(LocTable, BackwardShiftWrapsAroundTheEnd) {
  // Find keys by their bucket in an 8-slot table: three that start probing
  // at the last slot (so they occupy 7, 0, 1) and one that starts at slot 0.
  LocTable<int> sizer;
  for (std::uint64_t i = 0; i < 4; ++i) sizer[ObjIndex{~i, 1}] = 0;
  ASSERT_EQ(sizer.capacity(), 8u);
  std::vector<ObjIndex> at_last, at_first;
  for (std::uint64_t a = 0; at_last.size() < 3 || at_first.empty(); ++a) {
    const ObjIndex k{a, 7};
    const std::size_t b = sizer.bucket(k);
    if (b == 7 && at_last.size() < 3) at_last.push_back(k);
    if (b == 0 && at_first.empty()) at_first.push_back(k);
  }
  std::vector<ObjIndex> keys = at_last;
  keys.push_back(at_first[0]);

  // Every insertion order, then every erase order: each erase of a key in
  // slot 7 or 0 must shift the wrapped run back across the end.
  std::vector<int> ins{0, 1, 2, 3};
  do {
    std::vector<int> del{0, 1, 2, 3};
    do {
      LocTable<int> t;
      Ref ref;
      for (int i : ins) {
        t[keys[i]] = i;
        ref[keys[i]] = i;
      }
      ASSERT_EQ(t.capacity(), 8u);
      for (int i : del) {
        ASSERT_TRUE(t.erase(keys[i]));
        ref.erase(keys[i]);
        expect_same(t, ref);
        for (int j = 0; j < 4; ++j)
          ASSERT_EQ(t.find(keys[j]) != nullptr, ref.count(keys[j]) == 1);
      }
    } while (std::next_permutation(del.begin(), del.end()));
  } while (std::next_permutation(ins.begin(), ins.end()));
}

TEST(LocTable, OnePeHomeSetAtP65536) {
  // Every key shares ObjIndexHash % 65536, so its low 16 hash bits are
  // equal; the table must still spread them over its slots.
  const std::vector<ObjIndex> keys = one_pe_home_set(256, 12345);
  LocTable<int> t;
  for (const ObjIndex& k : keys) t[k] = 1;
  ASSERT_EQ(t.capacity(), 512u);
  std::set<std::size_t> buckets;
  for (const ObjIndex& k : keys) buckets.insert(t.bucket(k));
  EXPECT_GE(buckets.size(), 150u);  // ~201 expected from a uniform hash; low bits give 1
  fuzz(keys, 7, 20000);
}

}  // namespace
