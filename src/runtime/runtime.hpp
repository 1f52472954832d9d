#pragma once
// The charmlike runtime: message-driven execution of migratable chares on the
// emulated machine.
//
// Responsibilities:
//   * collection lifecycle (arrays, groups, dynamic insertion/destruction)
//   * point sends with scalable location management (home PEs, caches,
//     forwarding, in-transit buffering during migration)
//   * spanning-tree broadcasts, tree-cost-modeled reductions, quiescence
//     detection, timers
//   * element migration (PUP pack/move/unpack, home updates)
//   * per-element load instrumentation feeding the LB framework
//   * failed PEs: a PE is dead exactly while the machine quarantines it
//     (sim::Machine::fail_pe); a counted message to it skips its body but
//     still balances the quiescence count
//
// See DESIGN.md §1 for the emulation methodology.

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "pup/pup.hpp"
#include "runtime/collection.hpp"
#include "runtime/payload_pool.hpp"
#include "runtime/registry.hpp"
#include "sim/machine.hpp"

namespace charm {

namespace lb {
class Manager;
}
using LbManager = lb::Manager;

/// How collectives move data between PEs (DESIGN.md §10).
///   kFlat: contributions combine at a central point; the k-ary tree's
///          critical path is *modeled* as a wave latency (the seed behavior —
///          figure stats are byte-stable under it).
///   kTree: contributions combine per-PE and route up a k-ary spanning tree
///          (arity = tree_fanout) as real counted messages with per-level
///          combine.
/// Broadcasts fan down the same k-ary tree in both modes and route around
/// dead interior PEs.
enum class CollectiveTopology { kFlat, kTree };

struct RuntimeConfig {
  CollectiveTopology collectives = CollectiveTopology::kFlat;
  int tree_fanout = 4;  ///< arity of the broadcast / reduction / QD tree
};

// Modeled runtime costs (virtual seconds unless noted).
inline constexpr double kMigrateBandwidth = 4.0e9;  ///< PUP pack/unpack (B/s)
inline constexpr double kCreateCost = 0.5e-6;       ///< dynamic element construction
inline constexpr double kContributeCost = 0.1e-6;   ///< local reduction combine
inline constexpr double kDeliverCost = 0.05e-6;     ///< per-element broadcast / TRAM delivery

/// Entry id of the LB resume broadcast (Runtime::broadcast_resume): each
/// delivery runs resume_from_sync() in the entry frame and reports as this
/// entry.
inline constexpr EntryId kResumeEntry = -1;

class Runtime {
 public:
  Runtime(sim::Machine& machine, RuntimeConfig cfg = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The active runtime (exactly one may exist at a time).
  static Runtime& current();

  sim::Machine& machine() { return machine_; }
  const RuntimeConfig& config() const { return cfg_; }
  int npes() const { return machine_.npes(); }
  /// PEs currently participating (shrinks/expands under malleability).
  int active_pes() const { return active_pes_; }
  void set_active_pes(int n) { active_pes_ = n; }

  int my_pe() const { return machine_.current_pe(); }
  Time now() const { return machine_.now(); }
  void charge(double seconds) { machine_.charge(seconds); }

  // ---- collections ---------------------------------------------------------

  CollectionId create_collection(ChareTypeId type, bool is_group);
  Collection& collection(CollectionId id) { return *collections_.at(static_cast<std::size_t>(id)); }
  std::size_t collection_count() const { return collections_.size(); }

  /// Installs an element directly (initial placement before the run starts,
  /// or restart repopulation).  No messages are modeled.
  void seed_element(CollectionId col, ObjIndex idx,
                    std::unique_ptr<ArrayElementBase> obj, int pe);

  /// Dynamic insertion via a creation message (costs modeled).
  void insert_element(CollectionId col, ObjIndex idx, CreatorId creator,
                      Payload ctor_payload, int pe_hint = kInvalidPe,
                      int priority = kDefaultPriority);

  /// Destroys the *currently executing* element when its handler returns
  /// (AMR coarsening deletes blocks this way).
  void destroy_self();

  /// Home PE of an index under the current active-PE mapping.
  int home_pe(const ObjIndex& idx) const {
    return static_cast<int>(ObjIndexHash{}(idx) % static_cast<std::size_t>(active_pes_));
  }

  // ---- messaging -----------------------------------------------------------

  void send_point(CollectionId col, ObjIndex idx, EntryId ep,
                  Payload payload, int priority = kDefaultPriority);

  /// Typed point send (the proxy layer's entry point).  Routing is identical
  /// to send_point.  A cross-PE send packs the argument with pack_pooled, so
  /// one of up to 32 bytes rides inline in the Envelope and the message is
  /// its event slot alone.  When the destination resolves to the sending PE
  /// and the delivery closure (TypedArrival) fits UniqueFn's inline buffer,
  /// the argument travels in that closure instead of a pack/unpack round
  /// trip; a larger argument takes the packed path, whose buffer recycles
  /// through the payload pool.  The modeled wire size (header + packed
  /// argument bytes, sized via the constexpr/fused path), charges, QD
  /// accounting, and trace/stats events are identical on both paths; only
  /// host-side work changes.
  template <class A, class Arg = std::remove_cvref_t<A>>
  void send_typed(CollectionId col, ObjIndex idx, EntryId ep,
                  DirectInvoker<Arg> inv, A&& arg, int priority = kDefaultPriority) {
    Collection& c = collection(col);
    const int src_pe = machine_.in_handler() ? machine_.current_pe() : kInvalidPe;
    const int dst = route_point(c, idx, src_pe);
    if constexpr (sim::UniqueFn::kFitsInline<Counted<TypedArrival<Arg>>>) {
      if (dst == src_pe) {
        counted_send(dst, Envelope::kHeaderBytes + pup::size_of(arg), priority,
                     TypedArrival<Arg>{idx, inv, col, ep, priority, Arg(std::forward<A>(arg))});
        return;
      }
    }
    send_point_to(col, idx, ep, pack_pooled(arg), priority, src_pe, dst);
  }

  void broadcast(CollectionId col, EntryId ep, std::vector<std::byte> payload,
                 int priority = kDefaultPriority);

  /// Header-only broadcast calling resume_from_sync() on every element of a
  /// collection (the LB manager's AtSync release), reported as kResumeEntry.
  void broadcast_resume(CollectionId col);

  /// Drops any in-flight reduction state (FT rollback).
  void clear_reductions(CollectionId col);

  // ---- reductions (called through ArrayElementBase) --------------------------

  /// The one contribution path: scalar, vector, empty and byte contributions
  /// all fold into this PE's tree partial or the collection's flat slot here.
  void contribute(ArrayElementBase& elem, std::vector<double> nums, bool has_nums,
                  ReduceOp op, std::vector<std::byte> chunk, bool has_chunk,
                  const Callback& cb);

  // ---- migration -----------------------------------------------------------

  /// Moves an element to `to_pe`.  Safe to call from within the element's own
  /// handler (deferred to handler end).
  void migrate(CollectionId col, ObjIndex idx, int to_pe);

  // ---- services -------------------------------------------------------------

  /// Run `fn` on `pe` as soon as possible (driver-side orchestration).
  void on_pe(int pe, sim::Handler fn, int priority = kDefaultPriority);
  /// Run `fn` on `pe` after `dt` virtual seconds (not counted by QD).
  void after(int pe, double dt, sim::Handler fn);

  /// Invoke `cb` once no runtime messages remain in flight.
  void start_quiescence(Callback cb);

  /// Stop the machine; Machine::run() returns.
  void exit() { machine_.stop(); }

  /// Not quarantined by Machine::fail_pe, the one failure mark (injected
  /// and FT-driven failures alike).  A page probe, so the hot path never
  /// materializes PE state.
  bool pe_alive(int pe) const { return !machine_.pe_failed(pe); }

  LbManager& lb() { return *lb_; }

  // ---- statistics ------------------------------------------------------------

  std::uint64_t messages_sent() const { return msgs_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t forwards() const { return forwards_; }
  std::int64_t outstanding() const { return outstanding_; }
  /// Partial-combine messages routed up the reduction spanning tree (always
  /// 0 under CollectiveTopology::kFlat).
  std::uint64_t reduction_partials_sent() const { return redux_partials_sent_; }

  /// Modeled critical-path latency of a PE-tree wave (reductions, QD).
  double tree_wave_latency() const;

  // ---- memory accounting (DESIGN.md §12) -----------------------------------

  /// Structural host-memory census of the lazy per-PE state.  Counts pages,
  /// queue storage, location-table slots, the capacity the buffer pools
  /// retain, and the SlabPool's live bytes: element objects plus the nodes
  /// and buckets of every `elems` map.  A payload of up to 32 bytes rides in
  /// its event slot and counts with the event queue; heap payloads in
  /// flight, parked envelopes and reduction side blocks are covered by peak
  /// RSS only.
  struct MemoryFootprint {
    std::size_t touched_pes = 0;       ///< machine-level first-touch census
    std::size_t pe_state_bytes = 0;    ///< PE pages + ready-queue storage
    std::size_t collection_bytes = 0;  ///< PeLocal pages + location-table slots
    std::size_t element_bytes = 0;     ///< SlabPool: element objects + `elems` storage
    std::size_t event_queue_bytes = 0; ///< global event-list heap + arena
    std::size_t payload_pool_bytes = 0; ///< capacity on the payload/nums free lists
    std::size_t total() const {
      return pe_state_bytes + collection_bytes + element_bytes + event_queue_bytes +
             payload_pool_bytes;
    }
  };
  MemoryFootprint memory_footprint() const;

  // ---- internals used by sibling modules (lb/ft/tram) -------------------------

  /// Routing decision for a point message, shared by the packed and typed
  /// send paths and TRAM: group index decodes to a PE; otherwise local
  /// table, then location cache, then the home PE.  Probes only, so routing
  /// from a never-touched PE creates no state.
  int route_point(Collection& c, const ObjIndex& idx, int src_pe);

  /// Sends a counted control message of `bytes` plus the envelope header
  /// executing `fn` on `dst`.  The caller's closure is captured as is, so a
  /// small one stays inline in the event slot; wrapping it in a sim::Handler
  /// first would box every message.
  template <class F>
  void send_control(int dst, std::size_t bytes, F&& fn,
                    int priority = kDefaultPriority) {
    counted_send(dst, bytes + Envelope::kHeaderBytes, priority,
                 [fn = std::forward<F>(fn)](Runtime&) mutable { fn(); });
  }

  // ---- payload recycling -------------------------------------------------

  /// Returns an empty payload buffer with capacity >= reserve_bytes, reusing
  /// capacity from delivered messages when available.
  std::vector<std::byte> acquire_payload(std::size_t reserve_bytes) {
    return payload_pool_.acquire(reserve_bytes);
  }
  /// Recycles a dead payload's capacity for future sends.
  void release_payload(std::vector<std::byte>&& buf) {
    payload_pool_.release(std::move(buf));
  }
  /// Recycles a consumed message payload's heap half (an inline payload
  /// owns nothing).
  void release_payload(Payload&& payload) {
    if (payload.on_heap()) payload_pool_.release(payload.take_heap());
  }
  /// Packs `v` into a message payload (the allocation-free analogue of
  /// pup::to_bytes for the messaging hot path).  Single pass: a mem_copyable
  /// type of up to 32 bytes is one memcpy into the inline bytes and never
  /// touches the pool; a larger one is one memcpy into a pooled buffer.
  /// Dynamic types pack with grow-in-place appends into a recycled buffer
  /// (capacity >= PayloadPool::kSmallBytes once warm), so the separate Sizer
  /// walk is gone; when the result fits inline it is copied there and the
  /// buffer goes straight back to the pool.
  template <class T>
  Payload pack_pooled(const T& v) {
    if constexpr (pup::mem_copyable<T> && sizeof(T) <= Payload::kInlineBytes) {
      return Payload(&v, sizeof(T));
    } else {
      std::vector<std::byte> buf =
          acquire_payload(pup::mem_copyable<T> ? sizeof(T) : PayloadPool::kSmallBytes);
      pup::pack_append(buf, v);
      if (buf.size() > Payload::kInlineBytes) return Payload(std::move(buf));
      Payload small(buf.data(), buf.size());
      release_payload(std::move(buf));
      return small;
    }
  }
  /// Copies `n` packed bytes into a message payload: inline when they fit,
  /// otherwise into a pooled buffer.
  Payload copy_payload(const std::byte* data, std::size_t n) {
    if (n <= Payload::kInlineBytes) return Payload(data, n);
    std::vector<std::byte> buf = acquire_payload(n);
    buf.insert(buf.end(), data, data + n);
    return Payload(std::move(buf));
  }
  const PayloadPool& payload_pool() const { return payload_pool_; }

  /// Reduction contribution buffers (vectors of doubles) cycle through their
  /// own pool so POD reductions are allocation-free at steady state.
  std::vector<double> acquire_nums(std::size_t reserve_elems) {
    return nums_pool_.acquire(reserve_elems);
  }
  void release_nums(std::vector<double>&& buf) {
    nums_pool_.release(std::move(buf));
  }
  /// Recycles a consumed reduction result's buffers (callback completion).
  void release_result_buffers(ReductionResult&& result) {
    release_nums(std::move(result.nums));
    for (std::vector<std::byte>& chunk : result.chunks)
      release_payload(std::move(chunk));
  }
  const NumsPool& nums_pool() const { return nums_pool_; }

  /// Immediately performs the pack/send/install migration protocol; must be
  /// called from a handler on the owning PE (not the element's own handler —
  /// use migrate() for that).
  void perform_migration(CollectionId col, ObjIndex idx, int to_pe);

  /// Invoke an entry on a *local* element inline (point, broadcast and TRAM
  /// delivery).
  void deliver_local(ArrayElementBase& elem, EntryId ep, const std::byte* data,
                     std::size_t size);

  /// Invoke an entry on a *local* element with a typed argument (same-PE
  /// typed sends, TRAM): the devirtualized equivalent of deliver_local, with
  /// no serialization at all and identical instrumentation.
  template <class Arg>
  void deliver_local_typed(ArrayElementBase& elem, EntryId ep,
                           DirectInvoker<Arg> inv, const Arg& arg) {
    run_entry(elem, ep, [&] { inv(&elem, arg); });
  }

  /// Removes and returns a local element without any protocol (FT rollback).
  std::unique_ptr<ArrayElementBase> extract_local(CollectionId col, ObjIndex idx, int pe);

  /// Rebuilds home tables and clears caches from current element placement
  /// (FT recovery, malleability reconfiguration).  Charges no virtual time:
  /// the caller models the rebuild's cost.
  void rebuild_location_tables();

 private:
  friend class ArrayElementBase;

  struct QdRequest {
    Callback cb;
  };

  /// Marks the call a counted message makes on its body when the
  /// destination PE died before delivery (see counted_send).
  struct DeadDestination {};

  /// What every counted message puts in its event slot: the destination and
  /// the caller's body, which takes the Runtime as an argument instead of
  /// capturing it, so wrapping grows no closure.
  template <class Body>
  struct Counted {
    Body body;
    int dst;
    void operator()() {
      Runtime& rt = *current_;
      if (rt.pe_alive(dst)) {
        body(rt);
      } else if constexpr (std::is_invocable_v<Body&, Runtime&, DeadDestination>) {
        body(rt, DeadDestination{});
      }
      rt.note_message_done();
    }
  };

  /// The typed same-PE delivery closure: the argument itself rides in the
  /// event slot.  Members are ordered widest first to keep padding small.
  template <class Arg>
  struct TypedArrival {
    ObjIndex idx;
    DirectInvoker<Arg> inv;
    CollectionId col;
    EntryId ep;
    int priority;
    Arg arg;
    void operator()(Runtime& rt) {
      const int pe = rt.my_pe();
      if (ArrayElementBase* elem = rt.collection(col).find(pe, idx)) {
        rt.deliver_local_typed(*elem, ep, inv, arg);
      } else {
        rt.typed_miss(col, idx, ep, priority, rt.pack_pooled(arg), pe);
      }
    }
  };

  /// The one counted runtime send (DESIGN.md §7): counts the message toward
  /// QD and the traffic totals, sends `wire` modeled bytes to `dst`, and on
  /// arrival runs `body(rt)` unless `dst` died meanwhile (a body that also
  /// accepts DeadDestination is told, to recycle what it owns), then closes
  /// the message for QD.
  template <class Body>
  void counted_send(int dst, std::size_t wire, int priority, Body&& body) {
    ++outstanding_;
    ++msgs_sent_;
    bytes_sent_ += wire;
    machine_.send(dst, wire, priority,
                  Counted<std::remove_cvref_t<Body>>{std::forward<Body>(body), dst},
                  /*src_override=*/0);
  }

  void launch_envelope(Envelope&& env, int dst);
  void on_envelope(Envelope&& env);
  void handle_point_miss(Envelope&& env, int pe);

  /// Builds the Envelope and launches it at an already-routed destination.
  void send_point_to(CollectionId col, ObjIndex idx, EntryId ep,
                     Payload payload, int priority, int src_pe, int dst);
  /// Delivery-time miss on the typed same-PE path: reconstructs the packed
  /// envelope and re-enters the location protocol.
  void typed_miss(CollectionId col, ObjIndex idx, EntryId ep, int priority,
                  Payload payload, int pe);

  /// Saved execution context around an entry invocation, so nested deliveries
  /// (broadcast legs, TRAM batches) instrument correctly.
  struct ExecFrame {
    ArrayElementBase* prev_elem;
    bool prev_destroy;
    int prev_migrate;
  };
  ExecFrame begin_exec(ArrayElementBase& elem) {
    ExecFrame f{exec_elem_, exec_destroy_requested_, exec_migrate_to_};
    exec_elem_ = &elem;
    exec_destroy_requested_ = false;
    exec_migrate_to_ = kInvalidPe;
    return f;
  }
  /// Restores the context and runs the (rare) destroy/migrate epilogue the
  /// finished invocation requested.
  void end_exec(const ExecFrame& f, CollectionId col, const ObjIndex& idx, int pe) {
    const bool do_destroy = exec_destroy_requested_;
    const int mig = exec_migrate_to_;
    exec_elem_ = f.prev_elem;
    exec_destroy_requested_ = f.prev_destroy;
    exec_migrate_to_ = f.prev_migrate;
    if (do_destroy) {
      destroy_local(col, idx, pe);
    } else if (mig != kInvalidPe && mig != pe) {
      perform_migration(col, idx, mig);
    }
  }

  /// The one entry-invocation frame (point, broadcast, TRAM and LB-resume
  /// delivery): runs `invoke()` as entry `ep` of the local element `elem`,
  /// charging its work to the element's LB load and reporting the entry
  /// span, then runs the destroy/migrate epilogue it requested.  The element
  /// outlives `invoke()`: a migrate_to or destroy_self inside it is deferred
  /// to the epilogue.
  template <class Invoke>
  void run_entry(ArrayElementBase& elem, EntryId ep, Invoke&& invoke) {
    const CollectionId col = elem.col_;
    const ObjIndex idx = elem.idx_;
    const int pe = elem.pe_;
    ExecFrame f = begin_exec(elem);
    const double t0 = machine_.handler_elapsed();
    invoke();
    const double dt = machine_.handler_elapsed() - t0;
    elem.lb_load_ += dt;
    machine_.note_entry(pe, col, ep, dt);
    end_exec(f, col, idx, pe);
  }
  void destroy_local(CollectionId col, ObjIndex idx, int pe);
  /// Takes element `idx` out of `pe`'s table and the LB database (null when
  /// absent); the caller settles total_elements and the home record.
  std::unique_ptr<ArrayElementBase> remove_element(Collection& c, const ObjIndex& idx,
                                                   int pe);
  /// Runs `fn` at the home PE of `idx`: inline when that is `pe`, otherwise
  /// as a 16-byte control message.
  template <class F>
  void run_at_home(const ObjIndex& idx, int pe, F&& fn) {
    const int h = home_pe(idx);
    if (h == pe) {
      fn();
    } else {
      send_control(h, 16, std::forward<F>(fn));
    }
  }
  void install_element(CollectionId col, ObjIndex idx,
                       std::unique_ptr<ArrayElementBase> obj, int pe,
                       std::uint32_t epoch, bool migrated = false);
  void home_departed(CollectionId col, ObjIndex idx, std::uint32_t epoch);
  void home_arrived(CollectionId col, ObjIndex idx, int loc, std::uint32_t epoch);
  void note_message_done();
  void maybe_fire_quiescence();
  void complete_reduction(Collection& c, std::uint64_t seq);

  // ---- tree collectives (DESIGN.md §10) ------------------------------------
  /// Real distributed reductions are active (kTree with more than one PE;
  /// a single PE has no tree and takes the flat path).
  bool tree_collectives() const {
    return cfg_.collectives == CollectiveTopology::kTree && active_pes_ > 1;
  }
  /// Global bookkeeping for one tree-mode contribution; launches the
  /// up-sweep when every element has contributed.
  void note_tree_contribution(Collection& c, std::uint64_t seq, const Callback& cb);
  void start_tree_upsweep(Collection& c, std::uint64_t seq);
  /// Extracts rank's partial and sends it to the parent (completes at rank 0).
  void send_tree_partial(CollectionId col, std::uint64_t seq, int rank);
  void tree_partial_arrive(CollectionId col, std::uint64_t seq,
                           std::int64_t count, bool has_nums, ReduceOp op,
                           std::vector<double>&& nums,
                           std::vector<std::vector<std::byte>>&& chunks);
  void complete_tree_root(Collection& c, std::uint64_t seq);

  /// One broadcast leg to relative rank `relative_rank` of the tree rooted
  /// at `root`: forwards to the children, then delivers `ep` (or, for
  /// kResumeEntry, resume_from_sync) to every element on that PE.
  void broadcast_leg(CollectionId col, EntryId ep,
                     std::shared_ptr<const std::vector<std::byte>> payload,
                     int priority, int root, int relative_rank);
  /// Forwards a broadcast to the children of `relative_rank`.  A dead child
  /// is skipped and its children are reached directly, so every live PE
  /// still gets the broadcast exactly once.
  void broadcast_forward(CollectionId col, EntryId ep,
                         const std::shared_ptr<const std::vector<std::byte>>& payload,
                         int priority, int root, int relative_rank);

  sim::Machine& machine_;
  RuntimeConfig cfg_;
  std::vector<std::unique_ptr<Collection>> collections_;
  int active_pes_;

  ArrayElementBase* exec_elem_ = nullptr;
  bool exec_destroy_requested_ = false;
  int exec_migrate_to_ = kInvalidPe;

  std::int64_t outstanding_ = 0;
  std::vector<QdRequest> qd_requests_;

  std::uint64_t msgs_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t redux_partials_sent_ = 0;

  PayloadPool payload_pool_;
  NumsPool nums_pool_;
  /// Scratch for start_tree_upsweep's participant marking (capacity retained
  /// across waves so arming a wave allocates nothing).
  std::vector<std::uint8_t> redux_on_path_;

  std::unique_ptr<LbManager> lb_;

  static Runtime* current_;
};

// ---- free-function conveniences ----------------------------------------------

inline Runtime& runtime() { return Runtime::current(); }
inline int my_pe() { return Runtime::current().my_pe(); }
inline Time now() { return Runtime::current().now(); }
inline void charge(double seconds) { Runtime::current().charge(seconds); }

}  // namespace charm
