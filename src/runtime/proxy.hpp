#pragma once
// Typed proxies: the user-facing handles for chare arrays and groups.
//
//   auto cells = charm::ArrayProxy<Cell, Index3D>::create(rt);
//   cells.seed({x,y,z}, pe, ctor_arg);             // initial placement
//   cells[{x,y,z}].send<&Cell::accept>(msg);       // async entry invocation
//   cells.broadcast<&Cell::start>(params);
//
// Proxies are small puppable values (a CollectionId) — chares store and ship
// them freely, exactly like Charm++ proxies.

#include <memory>
#include <type_traits>
#include <utility>

#include "runtime/registry.hpp"
#include "runtime/runtime.hpp"

namespace charm {

template <class C, class Ix>
class ElementRef {
 public:
  ElementRef() = default;
  ElementRef(CollectionId col, Ix ix) : col_(col), ix_(ix) {}

  /// Asynchronously invoke entry method `Mfp` with a pup-able argument.
  /// Same-PE destinations take the typed fast path (no pack/unpack); an
  /// rvalue argument is moved all the way into the delivery slot.
  template <auto Mfp>
  void send(const typename detail::MfpTraits<decltype(Mfp)>::Argument& arg,
            int priority = kDefaultPriority) const {
    Runtime::current().send_typed(col_, IndexTraits<Ix>::encode(ix_),
                                  Registry::entry_of<Mfp>(),
                                  Registry::direct_invoker<Mfp>(), arg, priority);
  }

  template <auto Mfp>
  void send(typename detail::MfpTraits<decltype(Mfp)>::Argument&& arg,
            int priority = kDefaultPriority) const {
    Runtime::current().send_typed(col_, IndexTraits<Ix>::encode(ix_),
                                  Registry::entry_of<Mfp>(),
                                  Registry::direct_invoker<Mfp>(), std::move(arg),
                                  priority);
  }

  /// Asynchronously invoke a no-argument entry method.
  template <auto Mfp>
  void send(int priority = kDefaultPriority) const {
    Runtime::current().send_point(col_, IndexTraits<Ix>::encode(ix_),
                                  Registry::entry_of<Mfp>(), {}, priority);
  }

  /// Callback delivering a ReductionResult to `void C::m(const ReductionResult&)`.
  template <auto Mfp>
  Callback callback(int priority = kDefaultPriority) const {
    return Callback::to_element(col_, IndexTraits<Ix>::encode(ix_),
                                Registry::entry_of<Mfp>(), priority);
  }

  Ix index() const { return ix_; }
  CollectionId collection_id() const { return col_; }

  template <class P>
  void pup(P& p) {
    p | col_;
    ObjIndex o = IndexTraits<Ix>::encode(ix_);
    p | o;
    if (p.unpacking()) ix_ = IndexTraits<Ix>::decode(o);
  }

 private:
  CollectionId col_ = -1;
  Ix ix_{};
};

template <class C, class Ix = std::int32_t>
class ArrayProxy {
 public:
  using Element = C;
  using Index = Ix;

  ArrayProxy() = default;
  explicit ArrayProxy(CollectionId col) : col_(col) {}

  /// Creates an empty chare array.
  static ArrayProxy create(Runtime& rt) {
    return ArrayProxy(rt.create_collection(Registry::type_of<C>(), /*is_group=*/false));
  }

  ElementRef<C, Ix> operator[](const Ix& ix) const { return ElementRef<C, Ix>(col_, ix); }

  /// Direct initial placement (setup/restart; no messages modeled).
  template <class... Args>
  void seed(const Ix& ix, int pe, Args&&... args) const {
    Runtime::current().seed_element(col_, IndexTraits<Ix>::encode(ix),
                                    std::make_unique<C>(std::forward<Args>(args)...), pe);
  }

  /// Dynamic insertion via a creation message: C must be constructible from
  /// `const Arg&` (AMR inserts refined blocks this way).
  template <class Arg>
  void insert(const Ix& ix, const Arg& ctor_arg, int pe_hint = kInvalidPe,
              int priority = kDefaultPriority) const {
    Runtime& rt = Runtime::current();
    rt.insert_element(col_, IndexTraits<Ix>::encode(ix),
                      Registry::creator_of<C, Arg>(), rt.pack_pooled(ctor_arg),
                      pe_hint, priority);
  }

  template <auto Mfp, class Arg>
  void broadcast(const Arg& arg, int priority = kDefaultPriority) const {
    Runtime::current().broadcast(col_, Registry::entry_of<Mfp>(),
                                 pup::to_bytes(arg), priority);
  }

  template <auto Mfp>
  void broadcast(int priority = kDefaultPriority) const {
    Runtime::current().broadcast(col_, Registry::entry_of<Mfp>(), {}, priority);
  }

  /// Callback broadcasting the reduction result to every element.
  template <auto Mfp>
  Callback bcast_callback(int priority = kDefaultPriority) const {
    return Callback::to_broadcast(col_, Registry::entry_of<Mfp>(), priority);
  }

  CollectionId id() const { return col_; }
  bool valid() const { return col_ >= 0; }

  template <class P>
  void pup(P& p) {
    p | col_;
  }

 private:
  CollectionId col_ = -1;
};

/// Groups: one element per PE, indexed by PE id, never migrated.
template <class G>
class GroupProxy {
 public:
  GroupProxy() = default;
  explicit GroupProxy(CollectionId col) : col_(col) {}

  /// `factory(pe)` constructs the per-PE instance.
  template <class Factory>
  static GroupProxy create(Runtime& rt, Factory&& factory) {
    const CollectionId id = rt.create_collection(Registry::type_of<G>(), /*is_group=*/true);
    for (int pe = 0; pe < rt.npes(); ++pe) {
      rt.seed_element(id, IndexTraits<std::int32_t>::encode(static_cast<std::int32_t>(pe)),
                      factory(pe), pe);
    }
    return GroupProxy(id);
  }

  /// Default-construct the per-PE instances.
  static GroupProxy create(Runtime& rt) {
    return create(rt, [](int) { return std::make_unique<G>(); });
  }

  ElementRef<G, std::int32_t> on(int pe) const {
    return ElementRef<G, std::int32_t>(col_, static_cast<std::int32_t>(pe));
  }

  template <auto Mfp, class Arg>
  void broadcast(const Arg& arg, int priority = kDefaultPriority) const {
    Runtime::current().broadcast(col_, Registry::entry_of<Mfp>(),
                                 pup::to_bytes(arg), priority);
  }

  template <auto Mfp>
  void broadcast(int priority = kDefaultPriority) const {
    Runtime::current().broadcast(col_, Registry::entry_of<Mfp>(), {}, priority);
  }

  CollectionId id() const { return col_; }
  template <class P>
  void pup(P& p) {
    p | col_;
  }

 private:
  CollectionId col_ = -1;
};

}  // namespace charm
