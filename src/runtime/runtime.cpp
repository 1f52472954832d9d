#include "runtime/runtime.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "lb/manager.hpp"
#include "runtime/spanning_tree.hpp"

namespace charm {

Runtime* Runtime::current_ = nullptr;

Runtime::Runtime(sim::Machine& machine, RuntimeConfig cfg)
    : machine_(machine),
      cfg_(cfg),
      active_pes_(machine.npes()) {
  if (current_ != nullptr)
    throw std::logic_error("charm::Runtime: only one runtime may exist at a time");
  current_ = this;
  lb_ = std::make_unique<LbManager>(*this);
}

Runtime::~Runtime() { current_ = nullptr; }

Runtime& Runtime::current() {
  assert(current_ != nullptr && "no charm::Runtime active");
  return *current_;
}

// ---- collections -------------------------------------------------------------

CollectionId Runtime::create_collection(ChareTypeId type, bool is_group) {
  auto c = std::make_unique<Collection>(npes());
  c->id = static_cast<CollectionId>(collections_.size());
  c->type = type;
  c->is_group = is_group;
  collections_.push_back(std::move(c));
  return collections_.back()->id;
}

void Runtime::seed_element(CollectionId col, ObjIndex idx,
                           std::unique_ptr<ArrayElementBase> obj, int pe) {
  Collection& c = collection(col);
  obj->col_ = col;
  obj->idx_ = idx;
  obj->pe_ = pe;
  obj->epoch_ = 1;
  obj->redux_seq_ = std::max(obj->redux_seq_, c.redux_floor);
  if (c.is_group) obj->migratable_ = false;
  ArrayElementBase* raw = obj.get();
  c.local(pe).elems[idx] = std::move(obj);
  ++c.total_elements;
  lb_->on_element_added(c, *raw);
  if (!c.is_group) {
    c.local(home_pe(idx)).home[idx] = HomeRecord{pe, 1, false};
  }
}

void Runtime::insert_element(CollectionId col, ObjIndex idx, CreatorId creator,
                             Payload ctor_payload, int pe_hint,
                             int priority) {
  const int src_pe = machine_.in_handler() ? machine_.current_pe() : kInvalidPe;
  launch_envelope(Envelope::make(Envelope::Kind::kCreate, col, idx, creator, priority,
                                 std::move(ctor_payload), src_pe),
                  pe_hint != kInvalidPe ? pe_hint : home_pe(idx));
}

void Runtime::destroy_self() {
  if (exec_elem_ == nullptr)
    throw std::logic_error("destroy_self outside an element handler");
  exec_destroy_requested_ = true;
}

// ---- messaging -----------------------------------------------------------------

void Runtime::launch_envelope(Envelope&& env, int dst) {
  // The envelope moves straight into the message closure, and the closure
  // lives inline in its event slot (no shared_ptr box, no closure block);
  // with a payload of up to 32 bytes inline, the slot is the whole message.
  // A dead destination recycles the payload.
  struct EnvelopeArrival {
    Envelope env;
    void operator()(Runtime& rt) { rt.on_envelope(std::move(env)); }
    void operator()(Runtime& rt, DeadDestination) {
      rt.release_payload(std::move(env.payload));
    }
  };
  static_assert(sim::UniqueFn::kFitsInline<Counted<EnvelopeArrival>>,
                "the point-send closure must fit the event slot");
  static_assert(sizeof(Envelope) <= 80,
                "an Envelope plus the destination PE fills the 88-byte closure buffer");
  const std::size_t wire = env.wire_size();
  const int priority = env.priority;
  counted_send(dst, wire, priority, EnvelopeArrival{std::move(env)});
}

int Runtime::route_point(Collection& c, const ObjIndex& idx, int src_pe) {
  if (c.is_group) return static_cast<int>(IndexTraits<std::int32_t>::decode(idx));
  const int sp = src_pe >= 0 ? src_pe : 0;
  // Probing keeps routing from a never-touched source PE zero-byte (find()
  // already probes; the cache lookup must not materialize either).
  if (const PeLocal* pl = c.local_if(sp); pl != nullptr) {
    if (pl->elems.find(idx) != pl->elems.end()) return sp;
    if (const int* loc = pl->loc_cache.find(idx)) return *loc;
  }
  return home_pe(idx);
}

void Runtime::send_point_to(CollectionId col, ObjIndex idx, EntryId ep,
                            Payload payload, int priority, int src_pe, int dst) {
  launch_envelope(
      Envelope::make(Envelope::Kind::kPoint, col, idx, ep, priority, std::move(payload), src_pe),
      dst);
}

void Runtime::send_point(CollectionId col, ObjIndex idx, EntryId ep,
                         Payload payload, int priority) {
  Collection& c = collection(col);
  const int src_pe = machine_.in_handler() ? machine_.current_pe() : kInvalidPe;
  const int dst = route_point(c, idx, src_pe);
  send_point_to(col, idx, ep, std::move(payload), priority, src_pe, dst);
}

void Runtime::typed_miss(CollectionId col, ObjIndex idx, EntryId ep, int priority,
                         Payload payload, int pe) {
  // The typed slot only exists when sender == destination, so src_pe is pe.
  handle_point_miss(
      Envelope::make(Envelope::Kind::kPoint, col, idx, ep, priority, std::move(payload), pe),
      pe);
}

void Runtime::on_envelope(Envelope&& env) {
  const int pe = machine_.current_pe();
  Collection& c = collection(env.col);

  if (env.kind == Envelope::Kind::kCreate) {
    const CreatorInfo& info = Registry::instance().creator(env.target);
    pup::Unpacker u(env.payload.data(), env.payload.size());
    std::unique_ptr<ArrayElementBase> obj(info.create(u));
    charge(kCreateCost);
    obj->epoch_ = 1;
    obj->redux_seq_ = std::max(obj->redux_seq_, c.redux_floor);
    ++c.total_elements;
    release_payload(std::move(env.payload));
    install_element(env.col, env.idx, std::move(obj), pe, 1);
    return;
  }

  if (ArrayElementBase* elem = c.find(pe, env.idx)) {
    deliver_local(*elem, env.target, env.payload.data(), env.payload.size());
    release_payload(std::move(env.payload));
  } else {
    handle_point_miss(std::move(env), pe);
  }
}

void Runtime::deliver_local(ArrayElementBase& elem, EntryId ep, const std::byte* data,
                            std::size_t size) {
  const EntryInfo& einfo = Registry::instance().entry(ep);
  pup::Unpacker u(data, size);
  run_entry(elem, ep, [&] { einfo.invoke(&elem, u); });
}

void Runtime::broadcast(CollectionId col, EntryId ep, std::vector<std::byte> payload,
                        int priority) {
  auto pl = std::make_shared<const std::vector<std::byte>>(std::move(payload));
  const int root = machine_.in_handler() ? machine_.current_pe() : 0;
  broadcast_leg(col, ep, pl, priority, root, 0);
}

void Runtime::broadcast_resume(CollectionId col) {
  const int root = machine_.in_handler() ? machine_.current_pe() : 0;
  broadcast_leg(col, kResumeEntry, std::make_shared<const std::vector<std::byte>>(),
                kDefaultPriority, root, 0);
}

void Runtime::broadcast_leg(CollectionId col, EntryId ep,
                            std::shared_ptr<const std::vector<std::byte>> payload,
                            int priority, int root, int relative_rank) {
  const int abs = (root + relative_rank) % active_pes_;
  const std::size_t wire = payload->size() + Envelope::kHeaderBytes;
  machine_.note_collective(wire);
  counted_send(abs, wire, priority,
               [col, ep, payload, priority, root, relative_rank, abs](Runtime& rt) {
    // Forward down the spanning tree before local delivery so subtree sends
    // overlap with this PE's delivery work.
    rt.broadcast_forward(col, ep, payload, priority, root, relative_rank);
    Collection& c = rt.collection(col);
    // A PE with no block for this collection hosts no elements; the
    // broadcast leg still forwards (above) but delivers to nothing, so
    // probing preserves behaviour while keeping untouched PEs unpaged.
    PeLocal* pl = c.local_if(abs);
    if (pl == nullptr) return;
    std::vector<ObjIndex> snapshot;
    snapshot.reserve(pl->elems.size());
    for (const auto& [ix, unused] : pl->elems) snapshot.push_back(ix);
    for (const ObjIndex& ix : snapshot) {
      ArrayElementBase* e = c.find(abs, ix);
      if (e == nullptr) continue;
      rt.charge(kDeliverCost);
      if (ep == kResumeEntry) {
        rt.run_entry(*e, kResumeEntry, [e] { e->resume_from_sync(); });
      } else {
        rt.deliver_local(*e, ep, payload->data(), payload->size());
      }
    }
  });
}

void Runtime::broadcast_forward(
    CollectionId col, EntryId ep,
    const std::shared_ptr<const std::vector<std::byte>>& payload, int priority,
    int root, int relative_rank) {
  const SpanningTree tree(active_pes_, root, cfg_.tree_fanout);
  for (int i = 1; i <= tree.arity; ++i) {
    const long child = tree.child(relative_rank, i);
    if (child >= active_pes_) break;
    const int c = static_cast<int>(child);
    if (!pe_alive(tree.abs(c))) {
      broadcast_forward(col, ep, payload, priority, root, c);
    } else {
      broadcast_leg(col, ep, payload, priority, root, c);
    }
  }
}

// ---- services -------------------------------------------------------------------

void Runtime::on_pe(int pe, sim::Handler fn, int priority) {
  machine_.post(pe, now(), std::move(fn), priority);
}

void Runtime::after(int pe, double dt, sim::Handler fn) {
  machine_.post(pe, now() + dt, std::move(fn));
}

Runtime::MemoryFootprint Runtime::memory_footprint() const {
  MemoryFootprint f;
  f.touched_pes = machine_.touched_pes();
  f.pe_state_bytes = machine_.pe_state_bytes();
  f.event_queue_bytes = machine_.event_queue_bytes();
  f.payload_pool_bytes = payload_pool_.retained_bytes() + nums_pool_.retained_bytes();
  for (const auto& c : collections_) f.collection_bytes += c->memory_bytes();
  f.element_bytes = SlabPool::live_bytes();
  return f;
}

double Runtime::tree_wave_latency() const {
  const int p = std::max(2, active_pes_);
  const int depth = std::max(
      1, static_cast<int>(std::ceil(std::log(static_cast<double>(p)) /
                                    std::log(static_cast<double>(cfg_.tree_fanout)))));
  const auto& np = machine_.network().params();
  return depth * (np.alpha_send + np.alpha_recv + np.latency);
}

std::unique_ptr<ArrayElementBase> Runtime::extract_local(CollectionId col, ObjIndex idx,
                                                         int pe) {
  Collection& c = collection(col);
  std::unique_ptr<ArrayElementBase> obj = remove_element(c, idx, pe);
  if (obj) --c.total_elements;
  return obj;
}

std::unique_ptr<ArrayElementBase> Runtime::remove_element(Collection& c,
                                                          const ObjIndex& idx, int pe) {
  PeLocal* pl = c.local_if(pe);
  if (pl == nullptr) return nullptr;
  auto it = pl->elems.find(idx);
  if (it == pl->elems.end()) return nullptr;
  std::unique_ptr<ArrayElementBase> obj = std::move(it->second);
  lb_->on_element_removed(*obj);
  pl->elems.erase(it);
  return obj;
}

}  // namespace charm
