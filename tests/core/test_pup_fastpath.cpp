// Fast-path vs legacy-path PUP equivalence.
//
// The devirtualized single-pass helpers (pup::to_bytes / pack_append /
// from_bytes) and the mem_copyable memcpy collapse must produce byte streams
// identical to the original virtual walk (operator| through a pup::Er&,
// every bytes() call dispatched virtually).  This suite round-trips every
// message type in the repo through both paths, in both directions, with
// randomized contents.
//
// Also pins the mem_copyable trait itself: every opted-in type must really
// be padding-free (the opt-in static_asserts fire at compile time; the
// asserts here document which types are expected on which path).

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ampi/ampi.hpp"
#include "miniapps/amr/amr.hpp"
#include "miniapps/barnes/barnes.hpp"
#include "miniapps/leanmd/leanmd.hpp"
#include "miniapps/pdes/pdes.hpp"
#include "miniapps/stencil/stencil.hpp"
#include "pup/pup.hpp"
#include "runtime/callback.hpp"
#include "runtime/index.hpp"
#include "sort/sorting.hpp"

namespace {

using namespace charm;

// ---- trait pins -------------------------------------------------------------

// RawPuppable types qualify automatically: their walk is already one
// bytes(sizeof(T)) call.
static_assert(pup::mem_copyable<int>);
static_assert(pup::mem_copyable<double>);
static_assert(pup::mem_copyable<charm::Index2D>);
static_assert(pup::mem_copyable<charm::barnes::Body>);
static_assert(pup::mem_copyable<charm::leanmd::Atom>);

// Opted-in aggregates: each opt-in carries a kFieldBytes == sizeof(T)
// compile-time proof that the field walk covers every byte (no padding).
static_assert(pup::mem_copyable<charm::ObjIndex>);
static_assert(pup::mem_copyable<charm::pdes::EventMsg>);
static_assert(pup::mem_copyable<charm::pdes::WindowMsg>);
static_assert(pup::mem_copyable<charm::stencil::StartMsg>);
static_assert(pup::mem_copyable<charm::barnes::StartMsg>);
static_assert(pup::mem_copyable<charm::barnes::RequestMsg>);
static_assert(pup::mem_copyable<charm::leanmd::StartMsg>);
static_assert(pup::mem_copyable<charm::amr::StepMsg>);
static_assert(pup::mem_copyable<charm::sortlib::StartMsg>);

// Not eligible: variable-size members, or padded aggregates that were
// (correctly) never opted in.
static_assert(!pup::mem_copyable<std::string>);
static_assert(!pup::mem_copyable<std::vector<double>>);
static_assert(!pup::mem_copyable<charm::stencil::GhostMsg>);
static_assert(!pup::mem_copyable<charm::amr::LevelMsg>);  // uint8+uint64: padded
static_assert(!pup::mem_copyable<charm::ReductionResult>);

// ---- legacy path ------------------------------------------------------------

// Packs through a pup::Er& so every dispatch in the walk is virtual — this is
// exactly the pre-fast-path code path, kept as the compatibility shim.
template <class T>
std::vector<std::byte> legacy_pack(const T& v) {
  T& mv = const_cast<T&>(v);
  pup::Sizer s;
  pup::Er& se = s;
  se | mv;
  std::vector<std::byte> out;
  out.reserve(s.size());
  pup::Packer pk(out);
  pup::Er& pe = pk;
  pe | mv;
  return out;
}

template <class T>
void legacy_unpack(const std::vector<std::byte>& buf, T& v) {
  pup::Unpacker u(buf.data(), buf.size());
  pup::Er& ue = u;
  ue | v;
}

// Round-trips `v` through both paths and cross-checks the byte streams.
// Value equality is checked by re-packing (avoids requiring operator== on
// every message type).
template <class T>
void expect_equiv(const T& v) {
  const std::vector<std::byte> fast = pup::to_bytes(v);
  const std::vector<std::byte> legacy = legacy_pack(v);
  ASSERT_EQ(fast.size(), legacy.size());
  EXPECT_TRUE(fast == legacy) << "fast and legacy byte streams differ";
  EXPECT_EQ(pup::size_of(v), fast.size());

  // fast bytes -> legacy unpacker -> fast packer
  T from_fast{};
  legacy_unpack(fast, from_fast);
  EXPECT_TRUE(pup::to_bytes(from_fast) == fast);

  // legacy bytes -> fast unpacker -> legacy packer
  T from_legacy{};
  pup::from_bytes(legacy, from_legacy);
  EXPECT_TRUE(legacy_pack(from_legacy) == legacy);
}

std::mt19937 rng(20260806);

double rnd() { return std::uniform_real_distribution<double>(-1e6, 1e6)(rng); }
int rint(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); }

std::vector<double> rvec(std::size_t max_n) {
  std::vector<double> v(static_cast<std::size_t>(rint(0, static_cast<int>(max_n))));
  for (double& x : v) x = rnd();
  return v;
}

std::string rstr(std::size_t max_n) {
  std::string s(static_cast<std::size_t>(rint(0, static_cast<int>(max_n))), '\0');
  for (char& c : s) c = static_cast<char>(rint(32, 126));
  return s;
}

// ---- the suite --------------------------------------------------------------

constexpr int kRounds = 25;

TEST(PupFastPath, MemCopyableMessages) {
  for (int i = 0; i < kRounds; ++i) {
    expect_equiv(charm::ObjIndex{static_cast<std::uint64_t>(rng()),
                                 static_cast<std::uint64_t>(rng())});
    expect_equiv(charm::pdes::EventMsg{rnd()});
    expect_equiv(charm::pdes::WindowMsg{rnd()});
    expect_equiv(charm::stencil::StartMsg{rint(0, 1 << 20)});
    expect_equiv(charm::barnes::StartMsg{rint(0, 1 << 20)});
    expect_equiv(charm::barnes::RequestMsg{rint(-5, 500)});
    expect_equiv(charm::leanmd::StartMsg{rint(0, 1 << 20)});
    expect_equiv(charm::amr::StepMsg{rint(0, 1 << 20)});
    expect_equiv(charm::sortlib::StartMsg{rint(0, 1 << 20)});
  }
}

TEST(PupFastPath, StencilAndPdes) {
  for (int i = 0; i < kRounds; ++i) {
    charm::stencil::GhostMsg g;
    g.iter = rint(0, 1000);
    g.side = rint(0, 3);
    g.strip = rvec(64);
    expect_equiv(g);
  }
}

TEST(PupFastPath, Barnes) {
  for (int i = 0; i < kRounds; ++i) {
    charm::barnes::BodiesMsg b;
    b.from = rint(0, 63);
    b.bodies.resize(static_cast<std::size_t>(rint(0, 16)));
    for (auto& body : b.bodies) {
      body.x = rnd();
      body.y = rnd();
      body.z = rnd();
      body.vx = rnd();
      body.vy = rnd();
      body.vz = rnd();
      body.m = rnd();
    }
    expect_equiv(b);

    charm::barnes::SummariesMsg s;
    s.all.resize(static_cast<std::size_t>(rint(0, 8)));
    for (auto& sum : s.all) {
      sum.piece = rint(0, 63);
      sum.cx = rnd();
      sum.cy = rnd();
      sum.cz = rnd();
      sum.mass = rnd();
      sum.radius = rnd();
      sum.count = rint(0, 1000);
    }
    expect_equiv(s);
  }
}

TEST(PupFastPath, Leanmd) {
  for (int i = 0; i < kRounds; ++i) {
    charm::leanmd::PositionsMsg p;
    p.from[0] = static_cast<std::int16_t>(rint(-8, 8));
    p.from[1] = static_cast<std::int16_t>(rint(-8, 8));
    p.from[2] = static_cast<std::int16_t>(rint(-8, 8));
    p.step = rint(0, 1000);
    p.atoms.resize(static_cast<std::size_t>(rint(0, 12)));
    for (auto& a : p.atoms) {
      a.x = rnd();
      a.y = rnd();
      a.z = rnd();
      a.vx = rnd();
      a.vy = rnd();
      a.vz = rnd();
    }
    expect_equiv(p);

    charm::leanmd::ForcesMsg f;
    f.step = rint(0, 1000);
    f.f = rvec(36);
    expect_equiv(f);

    charm::leanmd::AtomsMsg am;
    am.step = rint(0, 1000);
    am.atoms.resize(static_cast<std::size_t>(rint(0, 12)));
    for (auto& a : am.atoms) {
      a.x = rnd();
      a.vx = rnd();
    }
    expect_equiv(am);
  }
}

TEST(PupFastPath, Amr) {
  for (int i = 0; i < kRounds; ++i) {
    charm::amr::FaceMsg fm;
    fm.step = rint(0, 100);
    fm.dim = rint(0, 2);
    fm.sender_depth = static_cast<std::uint8_t>(rint(0, 7));
    fm.sender_bits = static_cast<std::uint64_t>(rng());
    fm.n = rint(1, 8);
    fm.plane = rvec(64);
    expect_equiv(fm);

    charm::amr::LevelMsg lm;
    lm.from_depth = static_cast<std::uint8_t>(rint(0, 7));
    lm.from_bits = static_cast<std::uint64_t>(rng());
    lm.delta = rint(-1, 1);
    expect_equiv(lm);

    charm::amr::ChildCtorMsg cc;
    cc.col = rint(0, 7);
    cc.depth = static_cast<std::uint8_t>(rint(0, 7));
    cc.bits = static_cast<std::uint64_t>(rng());
    cc.step = rint(0, 100);
    for (auto& r : cc.face_rel) r = static_cast<std::int8_t>(rint(-1, 1));
    cc.field = rvec(27);
    expect_equiv(cc);

    charm::amr::ChildDataMsg cd;
    cd.octant = rint(0, 7);
    for (auto& r : cd.face_rel) r = static_cast<std::int8_t>(rint(-1, 1));
    cd.field = rvec(27);
    expect_equiv(cd);
  }
}

TEST(PupFastPath, SortAndAmpi) {
  for (int i = 0; i < kRounds; ++i) {
    charm::sortlib::KeysMsg k;
    k.from = rint(0, 63);
    k.keys.resize(static_cast<std::size_t>(rint(0, 32)));
    for (auto& key : k.keys) key = static_cast<std::uint64_t>(rng());
    expect_equiv(k);

    charm::sortlib::SplitterMsg sp;
    sp.splitters.resize(static_cast<std::size_t>(rint(0, 16)));
    for (auto& s : sp.splitters) s = static_cast<std::uint64_t>(rng());
    expect_equiv(sp);

    charm::ampi::Wire w;
    w.src = rint(0, 63);
    w.tag = rint(0, 1000);
    w.data.resize(static_cast<std::size_t>(rint(0, 64)));
    for (auto& b : w.data) b = static_cast<std::byte>(rint(0, 255));
    expect_equiv(w);
  }
}

TEST(PupFastPath, ReductionResult) {
  for (int i = 0; i < kRounds; ++i) {
    charm::ReductionResult r;
    r.nums = rvec(8);
    r.chunks.resize(static_cast<std::size_t>(rint(0, 4)));
    for (auto& c : r.chunks) {
      c.resize(static_cast<std::size_t>(rint(0, 32)));
      for (auto& b : c) b = static_cast<std::byte>(rint(0, 255));
    }
    expect_equiv(r);
  }
}

// Every stdlib overload in pup.hpp, exercised through one composite struct.
struct KitchenSink {
  std::string name;
  std::vector<std::string> tags;
  std::map<std::string, int> table;
  std::set<int> ids;
  std::optional<double> maybe;
  std::pair<int, double> pr{};
  std::deque<int> dq;
  std::vector<bool> bits;
  std::array<std::int16_t, 4> quad{};
  template <class P>
  void pup(P& p) {
    p | name;
    p | tags;
    p | table;
    p | ids;
    p | maybe;
    p | pr;
    p | dq;
    p | bits;
    p | quad;
  }
};

TEST(PupFastPath, StdlibOverloads) {
  for (int i = 0; i < kRounds; ++i) {
    KitchenSink k;
    k.name = rstr(24);
    for (int t = rint(0, 5); t > 0; --t) k.tags.push_back(rstr(12));
    for (int t = rint(0, 5); t > 0; --t) k.table[rstr(8)] = rint(-100, 100);
    for (int t = rint(0, 8); t > 0; --t) k.ids.insert(rint(-1000, 1000));
    if (rint(0, 1) != 0) k.maybe = rnd();
    k.pr = {rint(-5, 5), rnd()};
    for (int t = rint(0, 6); t > 0; --t) k.dq.push_back(rint(-50, 50));
    for (int t = rint(0, 19); t > 0; --t) k.bits.push_back(rint(0, 1) != 0);
    for (auto& q : k.quad) q = static_cast<std::int16_t>(rint(-300, 300));
    expect_equiv(k);
  }
}

TEST(PupFastPath, FromBytesUnderrunThrows) {
  const auto bytes = pup::to_bytes(charm::pdes::EventMsg{1.0});
  charm::pdes::EventMsg out;
  EXPECT_THROW(pup::from_bytes(bytes.data(), bytes.size() - 1, out),
               std::out_of_range);
}

}  // namespace
