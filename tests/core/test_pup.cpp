// PUP framework unit tests: round-trips for scalars, strings, containers,
// nested user types, and the sizer/packer agreement invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "pup/pup.hpp"
#include "runtime/index.hpp"
#include "sim/rng.hpp"

namespace {

struct Inner {
  int a = 0;
  double b = 0;
  std::string s;
  void pup(pup::Er& p) {
    p | a;
    p | b;
    p | s;
  }
  bool operator==(const Inner&) const = default;
};

struct Outer {
  std::vector<Inner> inners;
  std::map<std::string, int> table;
  std::array<float, 4> arr{};
  std::optional<Inner> maybe;
  void pup(pup::Er& p) {
    p | inners;
    p | table;
    p | arr;
    p | maybe;
  }
  bool operator==(const Outer&) const = default;
};

template <class T>
T round_trip(T& v) {
  auto bytes = pup::to_bytes(v);
  EXPECT_EQ(bytes.size(), pup::size_of(v)) << "sizer and packer disagree";
  T out{};
  pup::from_bytes(bytes, out);
  return out;
}

TEST(Pup, Scalars) {
  int i = -42;
  double d = 3.25;
  bool b = true;
  std::uint64_t u = 0xDEADBEEFCAFEull;
  EXPECT_EQ(round_trip(i), -42);
  EXPECT_EQ(round_trip(d), 3.25);
  EXPECT_EQ(round_trip(b), true);
  EXPECT_EQ(round_trip(u), 0xDEADBEEFCAFEull);
}

TEST(Pup, EnumsAndString) {
  enum class Color { kRed = 7, kBlue = 9 };
  Color c = Color::kBlue;
  EXPECT_EQ(round_trip(c), Color::kBlue);
  std::string s = "hello pup";
  EXPECT_EQ(round_trip(s), "hello pup");
  std::string empty;
  EXPECT_EQ(round_trip(empty), "");
}

TEST(Pup, Vectors) {
  std::vector<int> v{1, 2, 3, 4, 5};
  EXPECT_EQ(round_trip(v), v);
  std::vector<std::string> vs{"a", "", "long string with spaces"};
  EXPECT_EQ(round_trip(vs), vs);
  std::vector<bool> vb{true, false, true, true};
  EXPECT_EQ(round_trip(vb), vb);
  std::vector<int> ve;
  EXPECT_TRUE(round_trip(ve).empty());
}

TEST(Pup, AssociativeContainers) {
  std::map<int, std::string> m{{1, "one"}, {2, "two"}};
  EXPECT_EQ(round_trip(m), m);
  std::unordered_map<std::string, double> um{{"pi", 3.14}, {"e", 2.71}};
  EXPECT_EQ(round_trip(um), um);
  std::set<int> s{5, 3, 1};
  EXPECT_EQ(round_trip(s), s);
}

TEST(Pup, DequeOptionalPair) {
  std::deque<int> d{9, 8, 7};
  EXPECT_EQ(round_trip(d), d);
  std::optional<int> some = 5;
  EXPECT_EQ(round_trip(some), some);
  std::optional<int> none;
  EXPECT_EQ(round_trip(none), none);
  std::pair<int, std::string> pr{3, "x"};
  EXPECT_EQ(round_trip(pr), pr);
}

TEST(Pup, NestedUserTypes) {
  Outer o;
  o.inners = {{1, 1.5, "a"}, {2, 2.5, "bb"}};
  o.table = {{"k1", 10}, {"k2", 20}};
  o.arr = {1.f, 2.f, 3.f, 4.f};
  o.maybe = Inner{7, 7.5, "opt"};
  EXPECT_EQ(round_trip(o), o);
}

TEST(Pup, PUParrayRawAndObjects) {
  int raw[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::byte> buf;
  {
    pup::Packer pk(buf);
    pup::PUParray(pk, raw, 8);
  }
  int out[8] = {};
  pup::Unpacker u(buf);
  pup::PUParray(u, out, 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], raw[i]);
}

TEST(Pup, UnderrunThrows) {
  std::vector<std::byte> small(2);
  pup::Unpacker u(small);
  double d;
  EXPECT_THROW(u | d, std::out_of_range);
}

/// Counts every allocation made through any CountingAlloc<T>.
int g_allocations = 0;

template <class T>
struct CountingAlloc {
  using value_type = T;
  CountingAlloc() = default;
  template <class U>
  CountingAlloc(const CountingAlloc<U>&) {}  // NOLINT(google-explicit-constructor)
  T* allocate(std::size_t n) {
    ++g_allocations;
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) { std::allocator<T>{}.deallocate(p, n); }
  bool operator==(const CountingAlloc&) const = default;
};

/// Unpacks `v` from `buf` through both walks (concrete Unpacker and the
/// virtual Er), expecting std::out_of_range and no allocation by `v`.
template <class C>
void expect_refused_without_allocating(const std::vector<std::byte>& buf) {
  for (const bool virtual_walk : {false, true}) {
    C v;
    const int before = g_allocations;  // a deque allocates on construction
    pup::Unpacker u(buf);
    if (virtual_walk) {
      pup::Er& er = u;
      EXPECT_THROW(er | v, std::out_of_range);
    } else {
      EXPECT_THROW(u | v, std::out_of_range);
    }
    EXPECT_EQ(g_allocations, before) << (virtual_walk ? "Er walk" : "Unpacker walk");
    EXPECT_TRUE(v.empty());
  }
}

TEST(Pup, CountBeyondTheBytesLeftThrowsBeforeAllocating) {
  // 16 bytes that claim 2^40 elements: the count, then 8 bytes of data.
  std::vector<std::byte> buf = pup::to_bytes(std::uint64_t{1} << 40);
  buf.resize(16);
  std::vector<std::uint64_t> plain;
  pup::Unpacker u(buf);
  EXPECT_THROW(u | plain, std::out_of_range);
  expect_refused_without_allocating<std::vector<std::uint64_t, CountingAlloc<std::uint64_t>>>(buf);
  expect_refused_without_allocating<std::vector<std::byte, CountingAlloc<std::byte>>>(buf);
  expect_refused_without_allocating<
      std::basic_string<char, std::char_traits<char>, CountingAlloc<char>>>(buf);
  expect_refused_without_allocating<std::deque<std::uint64_t, CountingAlloc<std::uint64_t>>>(buf);
  // Nested: each inner vector packs at least its own 8-byte count.
  using Inner = std::vector<int>;
  expect_refused_without_allocating<std::vector<Inner, CountingAlloc<Inner>>>(buf);
}

TEST(Pup, CountThatFitsStillRoundTrips) {
  // The bound is exact: a count whose elements fill the buffer is accepted.
  const std::vector<std::uint32_t> v{1, 2, 3};
  std::vector<std::byte> buf = pup::to_bytes(v);
  std::vector<std::uint32_t, CountingAlloc<std::uint32_t>> back;
  pup::Unpacker u(buf);
  u | back;
  EXPECT_EQ(u.remaining(), 0u);
  EXPECT_TRUE(std::equal(back.begin(), back.end(), v.begin(), v.end()));
  buf.pop_back();
  pup::Unpacker short_u(buf);
  std::vector<std::uint32_t> none;
  EXPECT_THROW(short_u | none, std::out_of_range);
  EXPECT_EQ(none.capacity(), 0u) << "refused before the resize";
}

TEST(Pup, RngStateSurvivesMigrationRoundTrip) {
  sim::Rng r(123);
  (void)r.next_u64();
  (void)r.next_u64();
  sim::Rng copy = round_trip(r);
  EXPECT_EQ(copy.next_u64(), r.next_u64());
  EXPECT_EQ(copy.next_double(), r.next_double());
}

TEST(Pup, ObjIndexRoundTrip) {
  charm::ObjIndex ix{12345, 67890};
  EXPECT_EQ(round_trip(ix), ix);
}

TEST(Pup, IndexEncodingIsBijective) {
  using namespace charm;
  Index3D a{3, -7, 11};
  EXPECT_EQ(IndexTraits<Index3D>::decode(IndexTraits<Index3D>::encode(a)), a);
  Index6D b{{1, 2, 3, 4, 5, 6}};
  EXPECT_EQ(IndexTraits<Index6D>::decode(IndexTraits<Index6D>::encode(b)), b);
  BitIndex c;
  c = c.child(5).child(3).child(7);
  EXPECT_EQ(IndexTraits<BitIndex>::decode(IndexTraits<BitIndex>::encode(c)), c);
  EXPECT_EQ(c.depth, 3);
  EXPECT_EQ(c.octant_at(0), 5);
  EXPECT_EQ(c.octant_at(2), 7);
  EXPECT_EQ(c.parent().parent().octant_at(0), 5);
}

// Property sweep: packed size must match sizer prediction for random payloads.
class PupSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PupSizeProperty, SizerMatchesPacker) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Outer o;
  const int n = static_cast<int>(rng.next_below(20));
  for (int i = 0; i < n; ++i) {
    Inner in;
    in.a = static_cast<int>(rng.next_u64());
    in.b = rng.next_double();
    in.s = std::string(rng.next_below(32), 'x');
    o.inners.push_back(in);
    o.table[std::to_string(i)] = i;
  }
  EXPECT_EQ(pup::to_bytes(o).size(), pup::size_of(o));
  EXPECT_EQ(round_trip(o), o);
}

INSTANTIATE_TEST_SUITE_P(RandomPayloads, PupSizeProperty, ::testing::Range(0, 12));

// ---- deep-nesting property sweep --------------------------------------------
//
// Randomized structures exercising every container adapter at once, nested
// several levels deep.  For each seed: sizing == packing, and a pack→unpack
// round trip reproduces the value exactly.

struct DeepNest {
  std::map<std::string, std::vector<double>> series;
  std::vector<std::optional<Inner>> sparse;
  std::unordered_map<int, std::deque<std::string>> logs;
  std::set<std::int64_t> ids;
  std::optional<std::vector<std::string>> tags;
  std::vector<std::map<int, std::pair<int, double>>> layers;

  void pup(pup::Er& p) {
    p | series;
    p | sparse;
    p | logs;
    p | ids;
    p | tags;
    p | layers;
  }
  bool operator==(const DeepNest&) const = default;
};

std::string random_string(sim::Rng& rng, std::size_t max_len) {
  std::string s(rng.next_below(max_len + 1), '\0');
  for (char& c : s)
    c = static_cast<char>('a' + static_cast<char>(rng.next_below(26)));
  return s;
}

DeepNest random_deep_nest(sim::Rng& rng) {
  DeepNest d;
  const std::size_t n_series = rng.next_below(5);
  for (std::size_t i = 0; i < n_series; ++i) {
    std::vector<double> v(rng.next_below(9));
    for (double& x : v) x = rng.next_double() * 1e6 - 5e5;
    d.series[random_string(rng, 12)] = std::move(v);
  }
  const std::size_t n_sparse = rng.next_below(8);
  for (std::size_t i = 0; i < n_sparse; ++i) {
    if (rng.next_below(3) == 0) {
      d.sparse.emplace_back(std::nullopt);
    } else {
      d.sparse.emplace_back(Inner{static_cast<int>(rng.next_u64()),
                                  rng.next_double(), random_string(rng, 20)});
    }
  }
  const std::size_t n_logs = rng.next_below(4);
  for (std::size_t i = 0; i < n_logs; ++i) {
    std::deque<std::string> q;
    const std::size_t m = rng.next_below(6);
    for (std::size_t j = 0; j < m; ++j) q.push_back(random_string(rng, 15));
    d.logs[static_cast<int>(rng.next_below(1000))] = std::move(q);
  }
  const std::size_t n_ids = rng.next_below(16);
  for (std::size_t i = 0; i < n_ids; ++i)
    d.ids.insert(static_cast<std::int64_t>(rng.next_u64()));
  if (rng.next_below(2) == 0) {
    std::vector<std::string> tags(rng.next_below(5));
    for (auto& t : tags) t = random_string(rng, 8);
    d.tags = std::move(tags);
  }
  const std::size_t n_layers = rng.next_below(4);
  for (std::size_t i = 0; i < n_layers; ++i) {
    std::map<int, std::pair<int, double>> layer;
    const std::size_t m = rng.next_below(7);
    for (std::size_t j = 0; j < m; ++j)
      layer[static_cast<int>(rng.next_below(100))] = {
          static_cast<int>(rng.next_u64()), rng.next_double()};
    d.layers.push_back(std::move(layer));
  }
  return d;
}

class PupDeepNestProperty : public ::testing::TestWithParam<int> {};

TEST_P(PupDeepNestProperty, SizingPackingRoundTripAgree) {
  sim::Rng rng(0x9E3779B97F4A7C15ull ^ static_cast<std::uint64_t>(GetParam()));
  DeepNest d = random_deep_nest(rng);
  const auto bytes = pup::to_bytes(d);
  ASSERT_EQ(bytes.size(), pup::size_of(d)) << "sizer and packer disagree";
  DeepNest out;
  pup::from_bytes(bytes, out);
  EXPECT_EQ(out, d);
  // Packing is a pure function of the value: packing the same object twice
  // gives the identical byte stream.  (The unpacked copy may legitimately
  // re-pack differently — unordered_map iteration order can change after a
  // rebuild by insertion — but it must still round-trip to an equal value.)
  EXPECT_EQ(pup::to_bytes(d), bytes);
  DeepNest out2;
  pup::from_bytes(pup::to_bytes(out), out2);
  EXPECT_EQ(out2, out);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, PupDeepNestProperty, ::testing::Range(0, 30));

}  // namespace
