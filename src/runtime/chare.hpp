#pragma once
// Chare base classes.
//
// Array elements derive from ArrayElement<Self, Ix>; groups (one element per
// PE, like Charm++ groups) derive from Group<Self>.  The base class carries
// the element's identity and exposes runtime services: reductions, AtSync
// load balancing, migration, and PUP for migration/checkpointing.  Element
// objects live in SlabPool slots (slab_pool.hpp), not one malloc chunk each.

#include <array>
#include <cstdint>
#include <vector>

#include "pup/pup.hpp"
#include "runtime/callback.hpp"
#include "runtime/index.hpp"
#include "runtime/slab_pool.hpp"
#include "runtime/types.hpp"

namespace charm {

class Runtime;
class Collection;
namespace lb {
class Manager;
}

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

class ArrayElementBase {
 public:
  virtual ~ArrayElementBase() = default;

  /// Every element type draws its object from the slab pool; the virtual
  /// destructor hands the sized delete the dynamic type's size.  An
  /// over-aligned element type does not compile.
  static void* operator new(std::size_t bytes) { return SlabPool::allocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    SlabPool::deallocate(p, bytes);
  }
  static void* operator new(std::size_t, std::align_val_t) = delete;

  CollectionId collection_id() const { return col_; }
  ObjIndex raw_index() const { return idx_; }
  /// PE this element currently lives on.
  int pe() const { return pe_; }

  /// Serializes base bookkeeping; overriding classes must call the base.
  virtual void pup(pup::Er& p);

  /// Called on the destination PE after a migration completes.
  virtual void on_migrated() {}
  /// Called when the load balancer releases elements after an AtSync round.
  virtual void resume_from_sync() {}
  /// Spatial position used by ORB-style balancers.
  virtual std::array<double, 3> lb_coords() const { return {0.0, 0.0, 0.0}; }
  /// Modeled migration footprint override for elements whose live state is
  /// moved raw (AMPI user-level-thread stacks); 0 = use the PUP size.
  virtual std::size_t migration_bytes() const { return 0; }

  // ---- runtime services (defined in collection.cpp) ------------------------

  /// Contribute to the collection's current reduction.
  void contribute(std::vector<double> value, ReduceOp op, const Callback& cb);
  void contribute(double value, ReduceOp op, const Callback& cb);
  /// Count-only contribution (barrier across the collection).
  void contribute(const Callback& cb);
  /// Contribute an opaque chunk; the callback receives all chunks.
  void contribute_bytes(std::vector<std::byte> chunk, const Callback& cb);

  /// Request migration to `pe` (takes effect safely via the runtime).
  void migrate_to(int pe);

  /// AtSync load balancing: element is ready for a possible LB round; the
  /// runtime calls resume_from_sync() when the round completes.
  void at_sync();

  /// False for group members, which load balancing never moves.
  bool migratable() const { return migratable_; }

  /// Load accumulated since the last AtSync (virtual seconds).
  double measured_load() const { return lb_load_; }
  /// Load snapshot taken at the last AtSync — what the LB strategies see.
  double round_load() const { return lb_round_load_; }

 protected:
  Runtime& rt() const;

 private:
  friend class Runtime;
  friend class Collection;
  friend class lb::Manager;

  CollectionId col_ = -1;
  ObjIndex idx_{};
  int pe_ = kInvalidPe;
  bool migratable_ = true;
  double lb_load_ = 0;           ///< instrumented load since the last AtSync
  double lb_round_load_ = 0;     ///< snapshot taken at AtSync (strategy input)
  std::uint64_t redux_seq_ = 0;  ///< this element's next reduction number
  std::uint32_t epoch_ = 0;      ///< migration epoch (location-protocol ordering)
  /// Slot handle in the LB manager's load database.  Transient and
  /// PE-local by design: deliberately NOT pup'd (a migrated element gets a
  /// fresh slot on arrival), so wire bytes and virtual time are unchanged.
  std::uint32_t lb_slot_ = 0xffffffffu;
};

template <class Self, class Ix>
class ArrayElement : public ArrayElementBase {
 public:
  using IndexType = Ix;
  Ix index() const { return IndexTraits<Ix>::decode(raw_index()); }
};

/// Group base: one element per PE, indexed by PE id, never migrated.
template <class Self>
class Group : public ArrayElement<Self, std::int32_t> {
 public:
  int my_pe() const { return static_cast<int>(this->index()); }
};

}  // namespace charm
