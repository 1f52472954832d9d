#pragma once
// Chare-type / entry-method / constructor registry.
//
// Charm++ generates remote-invocation stubs from .ci files; here the same
// metadata is produced by templates.  `entry_of<&Foo::bar>()` lazily assigns a
// stable EntryId and registers a type-erased invoker that unpacks the argument
// with PUP and calls the member function.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "pup/pup.hpp"
#include "runtime/types.hpp"

namespace charm {

class ArrayElementBase;

namespace detail {

template <class Mfp>
struct MfpTraits;

template <class C, class Arg>
struct MfpTraits<void (C::*)(const Arg&)> {
  using Chare = C;
  using Argument = Arg;
};

template <class C>
struct MfpTraits<void (C::*)()> {
  using Chare = C;
  using Argument = void;
};

}  // namespace detail

struct EntryInfo {
  ChareTypeId type = -1;
  void (*invoke)(ArrayElementBase*, pup::Unpacker&) = nullptr;
};

/// Typed entry invoker used by the same-PE fast path: downcasts and calls the
/// member function directly — no unpacker, no type erasure of the argument.
template <class Arg>
using DirectInvoker = void (*)(ArrayElementBase*, const Arg&);

struct CreatorInfo {
  ChareTypeId type = -1;
  ArrayElementBase* (*create)(pup::Unpacker&) = nullptr;
};

struct ChareTypeInfo {
  /// Default-construct an instance (used to rebuild migrated / restored
  /// elements before unpacking their state); null when not available.
  ArrayElementBase* (*create_default)() = nullptr;
  const char* name = "";  ///< typeid name, for error messages
};

class Registry {
 public:
  static Registry& instance();

  template <class C>
  static ChareTypeId type_of() {
    static const ChareTypeId id = instance().add_type(make_type_info<C>());
    return id;
  }

  template <auto Mfp>
  static EntryId entry_of() {
    using Traits = detail::MfpTraits<decltype(Mfp)>;
    static const EntryId id = instance().add_entry(
        EntryInfo{type_of<typename Traits::Chare>(), &invoke_entry<Mfp>});
    return id;
  }

  /// Companion to entry_of: the typed invoker for Mfp (argument-taking entry
  /// methods only — no-arg sends keep the packed path's empty payload).
  template <auto Mfp>
  static auto direct_invoker() {
    using Traits = detail::MfpTraits<decltype(Mfp)>;
    using Arg = typename Traits::Argument;
    return DirectInvoker<Arg>([](ArrayElementBase* obj, const Arg& arg) {
      (static_cast<typename Traits::Chare*>(obj)->*Mfp)(arg);
    });
  }

  template <class C, class Arg>
  static CreatorId creator_of() {
    static const CreatorId id =
        instance().add_creator(CreatorInfo{type_of<C>(), &create_from<C, Arg>});
    return id;
  }

  const EntryInfo& entry(EntryId id) const { return entries_.at(static_cast<std::size_t>(id)); }
  /// Optional display name (trace viewers); "" when never set.
  const std::string& entry_name(EntryId id) const;
  void set_entry_name(EntryId id, std::string name);
  /// Convenience: `Registry::name_entry<&Foo::bar>("Foo::bar")` labels the
  /// entry in trace output (registers it if needed).
  template <auto Mfp>
  static void name_entry(std::string name) {
    instance().set_entry_name(entry_of<Mfp>(), std::move(name));
  }
  const CreatorInfo& creator(CreatorId id) const {
    return creators_.at(static_cast<std::size_t>(id));
  }
  const ChareTypeInfo& type(ChareTypeId id) const {
    return types_.at(static_cast<std::size_t>(id));
  }
  /// Rebuilds a migrated or restored element from its packed state:
  /// default-construct, then pup from `bytes`.  Throws std::logic_error
  /// naming the chare type when it has no default constructor.
  std::unique_ptr<ArrayElementBase> unpack_element(ChareTypeId id,
                                                   const std::vector<std::byte>& bytes) const;

 private:
  template <auto Mfp>
  static void invoke_entry(ArrayElementBase* obj, pup::Unpacker& u) {
    using Traits = detail::MfpTraits<decltype(Mfp)>;
    auto* c = static_cast<typename Traits::Chare*>(obj);
    if constexpr (std::is_void_v<typename Traits::Argument>) {
      (void)u;
      (c->*Mfp)();
    } else {
      typename Traits::Argument arg{};
      u | arg;
      (c->*Mfp)(arg);
    }
  }

  template <class C, class Arg>
  static ArrayElementBase* create_from(pup::Unpacker& u) {
    if constexpr (std::is_void_v<Arg>) {
      (void)u;
      return new C();
    } else {
      Arg arg{};
      u | arg;
      return new C(arg);
    }
  }

  template <class C>
  static ChareTypeInfo make_type_info() {
    ChareTypeInfo info;
    info.name = typeid(C).name();
    if constexpr (std::is_default_constructible_v<C>) {
      info.create_default = []() -> ArrayElementBase* { return new C(); };
    }
    return info;
  }

  ChareTypeId add_type(ChareTypeInfo info);
  EntryId add_entry(EntryInfo info);
  CreatorId add_creator(CreatorInfo info);

  std::vector<ChareTypeInfo> types_;
  std::vector<EntryInfo> entries_;
  std::vector<CreatorInfo> creators_;
  std::vector<std::string> entry_names_;
};

}  // namespace charm
