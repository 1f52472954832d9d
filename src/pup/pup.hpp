#pragma once
// PUP (Pack/UnPack) serialization framework, modeled after Charm++'s PUP::er.
//
// A single user-written `pup` member function describes an object's state; the
// same function drives sizing, packing to a byte stream, and unpacking from a
// byte stream.  This is the substrate for chare migration, disk checkpoints,
// and the double in-memory checkpoint protocol.
//
//   struct A {
//     int foo; std::array<float, 32> bar;
//     void pup(pup::Er& p) { p | foo; p | bar; }
//   };
//
// Dispatch is devirtualized: every `operator|` is templated on the concrete
// serializer, so a caller holding a Sizer/Packer/Unpacker (all final) gets a
// fully inlined field walk with zero virtual calls.  Writing the member as
//   template <class P> void pup(P& p) { ... }
// extends that through user types.  The `pup::Er&` spelling keeps working
// unchanged — it is the virtual compatibility shim, still required where the
// serializer is only known at runtime (the polymorphic chare migration walk).
//
// Types whose packed image is bit-identical to their object representation
// can skip the walk entirely (see MemCopyable below): size is a constant and
// pack/unpack collapse to one memcpy.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace pup {

/// Marks a user type as safe to serialize by raw byte copy.  Specialize for
/// POD structs that contain no pointers:
///   template<> struct AsBytes<MyPod> : std::true_type {};
template <class T>
struct AsBytes : std::false_type {};

/// Base serializer.  Concrete modes: Sizer, Packer, Unpacker.
class Er {
 public:
  enum class Mode { kSizing, kPacking, kUnpacking };

  explicit Er(Mode m) : mode_(m) {}
  virtual ~Er() = default;
  Er(const Er&) = delete;
  Er& operator=(const Er&) = delete;

  Mode mode() const { return mode_; }
  bool sizing() const { return mode_ == Mode::kSizing; }
  bool packing() const { return mode_ == Mode::kPacking; }
  bool unpacking() const { return mode_ == Mode::kUnpacking; }

  /// Process `n` raw bytes at `p` (read on pack, write on unpack).
  virtual void bytes(void* p, std::size_t n) = 0;

  /// Bytes left to read when unpacking (unbounded in the other modes).  A
  /// container's claimed element count is checked against it before the
  /// container grows.
  virtual std::size_t remaining() const { return SIZE_MAX; }

 private:
  Mode mode_;
};

/// Pass 1: computes the packed size of an object without writing anything.
class Sizer final : public Er {
 public:
  Sizer() : Er(Mode::kSizing) {}
  void bytes(void*, std::size_t n) override { size_ += n; }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Pass 2: appends the object's bytes to an owned buffer.  With the
/// devirtualized walk this is also the *sizing* pass — the buffer grows in
/// place, so callers pack in a single pass instead of Sizer-then-Packer.
class Packer final : public Er {
 public:
  explicit Packer(std::vector<std::byte>& out) : Er(Mode::kPacking), out_(out) {}
  void bytes(void* p, std::size_t n) override {
    const auto* b = static_cast<const std::byte*>(p);
    out_.insert(out_.end(), b, b + n);
  }

 private:
  std::vector<std::byte>& out_;
};

/// Pass 3: reads the object's bytes back out of a buffer.
class Unpacker final : public Er {
 public:
  Unpacker(const std::byte* data, std::size_t size)
      : Er(Mode::kUnpacking), data_(data), size_(size) {}
  explicit Unpacker(const std::vector<std::byte>& buf)
      : Unpacker(buf.data(), buf.size()) {}

  void bytes(void* p, std::size_t n) override {
    if (cursor_ + n > size_) throw std::out_of_range("pup::Unpacker: buffer underrun");
    if (n == 0) return;  // empty vectors unpack into a null data() pointer
    std::memcpy(p, data_ + cursor_, n);
    cursor_ += n;
  }
  std::size_t remaining() const override { return size_ - cursor_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// ---- dispatch -------------------------------------------------------------

/// Any of the PUP serializers: the concrete (devirtualized) ones or Er itself.
template <class P>
concept Serializer = std::derived_from<std::remove_cv_t<P>, Er>;

template <class T, class P = Er>
concept HasPupMethod = requires(T& t, P& p) { t.pup(p); };

template <class T>
concept RawPuppable =
    std::is_arithmetic_v<std::remove_cv_t<T>> || std::is_enum_v<std::remove_cv_t<T>> ||
    AsBytes<std::remove_cv_t<T>>::value;

template <Serializer P, RawPuppable T>
inline P& operator|(P& p, T& v) {
  p.bytes(const_cast<std::remove_cv_t<T>*>(&v), sizeof(T));
  return p;
}

template <Serializer P, class T>
  requires(!RawPuppable<T> && HasPupMethod<T, P>)
inline P& operator|(P& p, T& v) {
  v.pup(p);
  return p;
}

/// Charm++-style helper for C arrays of puppable elements.
template <Serializer P, class T>
inline void PUParray(P& p, T* arr, std::size_t n) {
  if constexpr (RawPuppable<T>) {
    p.bytes(arr, n * sizeof(T));
  } else {
    for (std::size_t i = 0; i < n; ++i) p | arr[i];
  }
}

// ---- mem_copyable: whole-object memcpy fast path ---------------------------

/// Opt-in for aggregates whose PUP walk is provably equivalent to one memcpy
/// of the whole object.  The specialization must carry the sum of the sizes
/// of the fields the walk visits, in walk order:
///
///   struct Vec3 { double x, y, z;
///                 template <class P> void pup(P& p) { p | x; p | y; p | z; } };
///   template <> struct pup::MemCopyable<Vec3> : std::true_type {
///     static constexpr std::size_t kFieldBytes = 3 * sizeof(double);
///   };
///
/// kFieldBytes is the padding-free proof: the opt-in is rejected at compile
/// time unless sizeof(T) == kFieldBytes, because padding bytes are *excluded*
/// from the packed walk (each field is emitted back to back) while a memcpy
/// would include them — the two images would disagree.  Field order must
/// match declaration order; the round-trip equivalence tests enforce that.
template <class T>
struct MemCopyable : std::false_type {};

namespace detail {

template <class T>
consteval bool mem_copyable_opt_in() {
  if constexpr (MemCopyable<T>::value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "pup::MemCopyable opt-in requires a trivially copyable type");
    static_assert(sizeof(T) == MemCopyable<T>::kFieldBytes,
                  "pup::MemCopyable opt-in has padding: sizeof(T) != sum of "
                  "field sizes, so a memcpy would not match the PUP walk");
    return true;
  } else {
    return false;
  }
}

/// Sizing and packing only read the value; the const_cast that the Er-based
/// walk needs (its signatures are mutable for the unpack direction) is
/// confined to this one place.
template <class T>
inline T& mutable_ref(const T& v) {
  return const_cast<T&>(v);
}

}  // namespace detail

/// True when size/pack/unpack of T collapse to a constexpr-size memcpy.
/// RawPuppable types qualify automatically — their walk already is a single
/// bytes(sizeof(T)) call, so the memcpy image is identical by construction.
/// Aggregates qualify by specializing MemCopyable (padding proof above).
template <class T>
inline constexpr bool mem_copyable =
    RawPuppable<T> || detail::mem_copyable_opt_in<std::remove_cv_t<T>>();

// ---- standard library support ---------------------------------------------

namespace detail {

/// The containers below, whose packed image starts with an element count.
template <class T>
struct CountPrefixed : std::false_type {};
template <class... A>
struct CountPrefixed<std::basic_string<A...>> : std::true_type {};
template <class... A>
struct CountPrefixed<std::vector<A...>> : std::true_type {};
template <class... A>
struct CountPrefixed<std::deque<A...>> : std::true_type {};

/// Packs or unpacks the element count of a container of T.  Unpacking
/// refuses, with std::out_of_range, a count whose elements cannot fit in the
/// bytes left, before the container grows.  A mem-copyable T packs sizeof(T)
/// bytes and a CountPrefixed one at least its count; a pup walk may write
/// nothing, so a count of other types is not bounded.
template <class T, Serializer P>
std::size_t pup_count(P& p, std::size_t size) {
  std::uint64_t n = size;
  p | n;
  constexpr std::size_t kEach =
      mem_copyable<T> ? sizeof(T) : CountPrefixed<T>::value ? sizeof n : 0;
  if (kEach > 0 && p.unpacking() && n > p.remaining() / kEach) {
    throw std::out_of_range("pup: a count of " + std::to_string(n) + " elements exceeds the " +
                            std::to_string(p.remaining()) + " bytes left");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace detail

template <Serializer P, class Tr, class A>
P& operator|(P& p, std::basic_string<char, Tr, A>& s) {
  const std::size_t n = detail::pup_count<char>(p, s.size());
  if (p.unpacking()) s.resize(n);
  if (n > 0) p.bytes(s.data(), n);
  return p;
}

template <Serializer P, class T, class A>
P& operator|(P& p, std::vector<T, A>& v) {
  const std::size_t n = detail::pup_count<T>(p, v.size());
  if (p.unpacking()) v.resize(n);
  PUParray(p, v.data(), v.size());
  return p;
}

template <Serializer P>
inline P& operator|(P& p, std::vector<bool>& v) {
  const std::size_t n = detail::pup_count<std::uint8_t>(p, v.size());
  if (p.unpacking()) v.resize(n);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint8_t b = p.unpacking() ? 0 : static_cast<std::uint8_t>(v[i]);
    p | b;
    if (p.unpacking()) v[i] = (b != 0);
  }
  return p;
}

template <Serializer P, class T, std::size_t N>
P& operator|(P& p, std::array<T, N>& a) {
  PUParray(p, a.data(), N);
  return p;
}

template <Serializer P, class A, class B>
P& operator|(P& p, std::pair<A, B>& pr) {
  p | pr.first;
  p | pr.second;
  return p;
}

template <Serializer P, class T>
P& operator|(P& p, std::optional<T>& o) {
  std::uint8_t has = o.has_value() ? 1 : 0;
  p | has;
  if (p.unpacking()) {
    if (has) {
      o.emplace();
      p | *o;
    } else {
      o.reset();
    }
  } else if (has) {
    p | *o;
  }
  return p;
}

template <Serializer P, class T, class A>
P& operator|(P& p, std::deque<T, A>& d) {
  const std::size_t n = detail::pup_count<T>(p, d.size());
  if (p.unpacking()) d.resize(n);
  for (auto& e : d) p | e;
  return p;
}

namespace detail {
// Associative containers: pack as (count, k, v, k, v, ...).
template <Serializer P, class Map>
P& pup_map(P& p, Map& m) {
  std::uint64_t n = m.size();
  p | n;
  if (p.unpacking()) {
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      p | k;
      p | v;
      m.emplace(std::move(k), std::move(v));
    }
  } else {
    for (auto& [k, v] : m) {
      p | const_cast<typename Map::key_type&>(k);
      p | v;
    }
  }
  return p;
}

template <Serializer P, class SetT>
P& pup_set(P& p, SetT& s) {
  std::uint64_t n = s.size();
  p | n;
  if (p.unpacking()) {
    s.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename SetT::key_type k{};
      p | k;
      s.insert(std::move(k));
    }
  } else {
    for (auto& k : s) p | const_cast<typename SetT::key_type&>(k);
  }
  return p;
}
}  // namespace detail

template <Serializer P, class K, class V, class C, class A>
P& operator|(P& p, std::map<K, V, C, A>& m) { return detail::pup_map(p, m); }
template <Serializer P, class K, class V, class H, class E, class A>
P& operator|(P& p, std::unordered_map<K, V, H, E, A>& m) { return detail::pup_map(p, m); }
template <Serializer P, class K, class C, class A>
P& operator|(P& p, std::set<K, C, A>& s) { return detail::pup_set(p, s); }
template <Serializer P, class K, class H, class E, class A>
P& operator|(P& p, std::unordered_set<K, H, E, A>& s) { return detail::pup_set(p, s); }

// ---- convenience round-trip helpers ----------------------------------------
//
// All take the value by const reference (sizing/packing only read it) and all
// use the single-pass fast path: mem_copyable types never walk at all, and
// dynamic types pack with grow-in-place appends instead of a separate Sizer
// pass.  The byte images are identical to the virtual Er walk — the
// fast-vs-legacy equivalence tests pin that down for every pup'd type.

template <class T>
constexpr std::size_t size_of(const T& v) {
  if constexpr (mem_copyable<T>) {
    return sizeof(T);
  } else {
    Sizer s;
    s | detail::mutable_ref(v);
    return s.size();
  }
}

/// Packs `v` at the end of `out` in one pass (no separate sizing walk).
template <class T>
void pack_append(std::vector<std::byte>& out, const T& v) {
  if constexpr (mem_copyable<T>) {
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &v, sizeof(T));
  } else {
    Packer pk(out);
    pk | detail::mutable_ref(v);
  }
}

template <class T>
std::vector<std::byte> to_bytes(const T& v) {
  std::vector<std::byte> out;
  pack_append(out, v);
  return out;
}

template <class T>
void from_bytes(const std::byte* data, std::size_t size, T& v) {
  if constexpr (mem_copyable<T>) {
    if (size < sizeof(T)) throw std::out_of_range("pup::from_bytes: buffer underrun");
    std::memcpy(&v, data, sizeof(T));
  } else {
    Unpacker u(data, size);
    u | v;
  }
}

template <class T>
void from_bytes(const std::vector<std::byte>& buf, T& v) {
  from_bytes(buf.data(), buf.size(), v);
}

}  // namespace pup

// Charm++-compatible spelling used throughout the paper's listings (Fig 3).
namespace PUP {
using er = pup::Er;
}
