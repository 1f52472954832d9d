// Scalable location management (§II-D of the paper): home PEs, location
// caches, forwarding, in-transit buffering, and the migration protocol.
//
// Every element has a home PE (hash of its index modulo active PEs) that holds
// the authoritative location record.  Senders use their PE-local cache and
// fall back to the home; the home forwards misses and pushes cache updates to
// the original sender.  During a migration the home buffers traffic between
// the "departed" and "arrived" control messages; a per-element epoch makes the
// protocol robust to control-message reordering.

#include <utility>

#include "lb/manager.hpp"
#include "runtime/runtime.hpp"

namespace charm {

void Runtime::handle_point_miss(Envelope&& env, int pe) {
  Collection& c = collection(env.col);
  if (c.is_group) {  // message to a dead group PE: drop
    release_payload(std::move(env.payload));
    return;
  }

  const int h = home_pe(env.idx);
  if (pe != h) {
    // Stale cache or post-migration straggler: bounce via the home.
    ++forwards_;
    launch_envelope(std::move(env), h);
    return;
  }

  PeLocal& pl = c.local(pe);
  const HomeRecord r = pl.home[env.idx];
  if (r.location == kInvalidPe || r.in_transit || r.location == pe) {
    // Element not yet created here, or mid-migration: park the message.  It
    // is re-launched (and re-counted) when the element lands.
    pl.park(std::move(env));
    return;
  }

  const int loc = r.location;
  ++forwards_;
  if (env.src_pe >= 0 && env.src_pe != pe && env.src_pe != loc) {
    // Teach the sender where the element lives now.
    const int src = env.src_pe;
    const CollectionId col = env.col;
    const ObjIndex ix = env.idx;
    send_control(src, 16, [this, col, ix, loc, src] {
      collection(col).local(src).loc_cache[ix] = loc;
    });
  }
  launch_envelope(std::move(env), loc);
}

void Runtime::home_departed(CollectionId col, ObjIndex idx, std::uint32_t epoch) {
  const int pe = machine_.current_pe();
  HomeRecord& r = collection(col).local(pe).home[idx];
  if (epoch > r.arrived_epoch) r.in_transit = true;
}

void Runtime::home_arrived(CollectionId col, ObjIndex idx, int loc, std::uint32_t epoch) {
  const int pe = machine_.current_pe();
  PeLocal& pl = collection(col).local(pe);
  HomeRecord& r = pl.home[idx];
  if (epoch >= r.arrived_epoch) {
    r = HomeRecord{loc, epoch, false};
    for (Envelope& env : pl.unpark(idx)) launch_envelope(std::move(env), loc);
  }
}

void Runtime::install_element(CollectionId col, ObjIndex idx,
                              std::unique_ptr<ArrayElementBase> obj, int pe,
                              std::uint32_t epoch, bool migrated) {
  Collection& c = collection(col);
  obj->col_ = col;
  obj->idx_ = idx;
  obj->pe_ = pe;
  ArrayElementBase* raw = obj.get();
  c.local(pe).elems[idx] = std::move(obj);

  if (migrated) raw->on_migrated();
  lb_->on_element_added(c, *raw);

  run_at_home(idx, pe, [this, col, idx, pe, epoch] { home_arrived(col, idx, pe, epoch); });

  if (migrated) lb_->note_migration_arrival();
}

void Runtime::perform_migration(CollectionId col, ObjIndex idx, int to_pe) {
  Collection& c = collection(col);
  const int from = machine_.current_pe();
  const ArrayElementBase* elem = c.find(from, idx);
  if (elem == nullptr || elem->pe_ != from)
    throw std::logic_error("perform_migration: element not on the executing PE");
  if (to_pe == from) return;

  // Departure: the element leaves the table and the LB database (the arrival
  // gets a fresh slot).
  std::unique_ptr<ArrayElementBase> obj = remove_element(c, idx, from);
  const std::uint32_t epoch = ++obj->epoch_;

  std::size_t bytes;
  std::vector<std::byte> data;
  if (c.raw_move) {
    bytes = obj->migration_bytes();
    if (bytes == 0) {
      pup::Sizer s;
      obj->pup(s);
      bytes = s.size();
    }
  } else {
    pup::Packer pk(data);
    obj->pup(pk);
    bytes = data.size();
  }
  charge(bytes / kMigrateBandwidth);  // pack / copy-out cost

  // Tell the home the element is in transit.
  run_at_home(idx, from, [this, col, idx, epoch] { home_departed(col, idx, epoch); });

  const double unpack_cost = static_cast<double>(bytes) / kMigrateBandwidth;
  if (c.raw_move) {
    // Live object handed over raw (AMPI user-level-thread stacks; DESIGN.md §1).
    auto holder = std::make_shared<std::unique_ptr<ArrayElementBase>>(std::move(obj));
    send_control(to_pe, bytes, [this, col, idx, to_pe, epoch, unpack_cost, holder] {
      charge(unpack_cost);
      install_element(col, idx, std::move(*holder), to_pe, epoch, /*migrated=*/true);
    });
  } else {
    obj.reset();  // destroyed on the source after packing
    const ChareTypeId type = c.type;
    auto payload = std::make_shared<std::vector<std::byte>>(std::move(data));
    send_control(to_pe, bytes, [this, col, idx, to_pe, epoch, type, unpack_cost, payload] {
      std::unique_ptr<ArrayElementBase> fresh = Registry::instance().unpack_element(type, *payload);
      charge(unpack_cost);
      install_element(col, idx, std::move(fresh), to_pe, epoch, /*migrated=*/true);
    });
  }
}

void Runtime::migrate(CollectionId col, ObjIndex idx, int to_pe) {
  if (exec_elem_ != nullptr && exec_elem_->col_ == col && exec_elem_->idx_ == idx) {
    exec_migrate_to_ = to_pe;  // deferred to handler end
    return;
  }
  perform_migration(col, idx, to_pe);
}

void Runtime::destroy_local(CollectionId col, ObjIndex idx, int pe) {
  Collection& c = collection(col);
  if (remove_element(c, idx, pe) == nullptr) return;
  --c.total_elements;
  const int h = home_pe(idx);
  run_at_home(idx, pe, [this, col, idx, h] {
    // Erasing a missing record is a no-op, so probing stays equivalent.
    if (PeLocal* pl = collection(col).local_if(h)) pl->erase_home(idx);
  });
}

void Runtime::rebuild_location_tables() {
  for (auto& cp : collections_) {
    Collection& c = *cp;
    if (c.is_group) continue;
    // Touched-only sweeps: an untouched block has nothing to clear and hosts
    // no elements, and re-homing writes one record per element regardless of
    // visit order, so the rebuilt tables are identical to a dense walk.
    c.pe.for_each_touched([](std::size_t, PeLocal& pl) { pl.clear_location(); });
    c.pe.for_each_touched([this, &c](std::size_t p, PeLocal& pl) {
      for (auto& [ix, obj] : pl.elems)
        c.local(home_pe(ix)).home[ix] = HomeRecord{static_cast<int>(p), obj->epoch_, false};
    });
  }
}

}  // namespace charm
