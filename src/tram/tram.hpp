#pragma once
// TRAM: Topological Routing and Aggregation Module (§III-F, Fig 15b).
//
// Fine-grained messages (data items) destined for chare array elements are
// buffered per *peer* — any PE reachable by traveling along a single
// dimension of the machine's torus — and shipped as one combined message when
// a buffer fills.  Items whose destination is not a peer are routed through
// intermediate peers dimension by dimension, so buffer space is
// O(peers) = O(sum of dims), not O(P), and items with different destinations
// share sub-paths.
//
// Items are packed *directly* into the per-peer aggregation buffer: each is a
// [FrameHead][pup bytes] frame appended to a flat byte vector, so a batch is
// one contiguous allocation instead of a vector of per-item payload vectors.
// Same-PE destinations skip packing entirely and go through the runtime's
// typed delivery.
//
// Typed facade (the last argument is the per-peer flush threshold, in items):
//   charm::tram::Stream<&Lp::recv_event> stream(rt, lps, 64);
//   stream.send(dest_index, event);            // from any handler
//   stream.flush_all();                        // end of phase (then QD)

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/proxy.hpp"
#include "runtime/runtime.hpp"
#include "sim/paged_table.hpp"

namespace charm::tram {

/// Modelled per-item framing bytes of a batch on the wire.
inline constexpr std::size_t kItemOverhead = 8;

/// Type-erased aggregation core (one per stream, state partitioned per PE).
class Core {
 public:
  /// A peer buffer flushes once it holds `buffer_items` items.
  Core(Runtime& rt, CollectionId target, std::size_t buffer_items);

  /// Insert a typed item from the currently executing PE.  Local
  /// destinations are delivered through the typed fast path (no pack);
  /// remote ones are pupped straight into the peer's aggregation buffer.
  /// Out of line: inlined into a sender that picks between TRAM and point
  /// sends (pdes::Lp::emit), it bloats the point path (perfbench phold ~4%
  /// slower).
  template <class T>
  [[gnu::noinline]] void insert_typed(const ObjIndex& dest_idx, EntryId ep,
                                      DirectInvoker<T> inv, const T& item) {
    const int pe = rt_.machine().current_pe();
    ++items_;
    const int dest = resolve_dest(pe, dest_idx);
    if (dest == pe) {
      ArrayElementBase* elem = rt_.collection(col_).find(pe, dest_idx);
      rt_.charge(kDeliverCost);
      if (elem != nullptr) {
        rt_.deliver_local_typed(*elem, ep, inv, item);
        return;
      }
      local_miss(pe, dest_idx, ep, rt_.pack_pooled(item), /*flush_through=*/false);
      return;
    }
    append_frame(pe, dest_idx, ep, dest, /*flush_through=*/false,
                 [&item](std::vector<std::byte>& frames) { pup::pack_append(frames, item); });
  }

  /// Flush every buffer on every PE and cascade through intermediate hops
  /// (phase end).  Completion is observable via Runtime::start_quiescence.
  void flush_all();

  Runtime& rt() const { return rt_; }

  std::uint64_t items_inserted() const { return items_; }
  std::uint64_t batches_sent() const { return batches_; }
  /// Mean items per batch — the aggregation factor TRAM achieves.
  double aggregation() const {
    return batches_ ? static_cast<double>(routed_items_) / static_cast<double>(batches_) : 0.0;
  }
  /// Modeled wire bytes of all batch sends (frame payloads + per-item
  /// overhead; the Envelope header is charged by send_control on top).
  std::uint64_t batch_bytes() const { return batch_bytes_; }
  /// Control-plane traffic: the flush_all fan-out messages that tell every
  /// PE to drain its buffers, and their modeled bytes.  Together with
  /// batch_bytes this accounts for every byte TRAM puts on the wire, so
  /// benches can report aggregation overhead per item.
  std::uint64_t control_messages() const { return control_msgs_; }
  std::uint64_t control_bytes() const { return control_bytes_; }

 private:
  /// Per-item frame header preceding the pupped bytes in a batch buffer.
  /// Buffers never leave the (sequentially emulated) process, so host layout
  /// and padding are fine.
  struct FrameHead {
    ObjIndex idx{};
    EntryId ep = -1;
    std::int32_t dest_pe = 0;
    std::uint32_t len = 0;
  };
  /// One aggregation buffer: concatenated frames plus running totals.
  struct Buffer {
    std::vector<std::byte> frames;
    std::size_t count = 0;
    std::size_t payload_bytes = 0;  ///< pup bytes only, excluding frame heads
  };
  struct PeState {
    std::unordered_map<int, Buffer> buffers;  // keyed by peer PE
  };

  /// Destination PE: the runtime's point routing (Runtime::route_point),
  /// refined by the home record when this PE is the element's home.
  int resolve_dest(int pe, const ObjIndex& idx);
  /// A better owner guess after a local delivery miss, or kInvalidPe: the
  /// home record unless in transit or pointing here; elsewhere the cache,
  /// else the home PE.
  int better_location(int pe, const ObjIndex& idx);
  /// Local delivery missed: re-route on the aggregated path when a better
  /// location is known, else hand over to the point-send protocol (which
  /// buffers at the home until the element lands).
  void local_miss(int pe, const ObjIndex& idx, EntryId ep,
                  Payload payload, bool flush_through);
  /// Appends one frame toward `dest` to the buffer of its next hop and
  /// flushes that buffer on threshold: reserves the FrameHead, lets
  /// `append(frames)` write the item's bytes after it, then patches the head.
  template <class Append>
  void append_frame(int pe, const ObjIndex& idx, EntryId ep, int dest, bool flush_through,
                    Append&& append) {
    const int peer = rt_.machine().topology().next_on_route(pe, dest);
    Buffer& buf = buffer_for(pe, peer);
    const std::size_t head_at = buf.frames.size();
    buf.frames.resize(head_at + sizeof(FrameHead));
    append(buf.frames);
    FrameHead head{};
    head.idx = idx;
    head.ep = ep;
    head.dest_pe = dest;
    head.len = static_cast<std::uint32_t>(buf.frames.size() - head_at - sizeof(FrameHead));
    std::memcpy(buf.frames.data() + head_at, &head, sizeof(FrameHead));
    buf.payload_bytes += head.len;
    ++buf.count;
    if (buf.count >= buffer_items_) flush_buffer(pe, peer, flush_through);
  }
  /// append_frame for an already-packed item (a relayed or re-routed frame).
  void route_packed(int pe, const ObjIndex& idx, EntryId ep, int dest,
                    const std::byte* data, std::size_t len, bool flush_through);
  Buffer& buffer_for(int pe, int peer);
  void flush_buffer(int pe, int peer, bool flush_through);
  void flush_pe(int pe, bool flush_through);
  void deliver_batch(int pe, Buffer buf, bool flush_through);

  Runtime& rt_;
  CollectionId col_;
  std::size_t buffer_items_;
  /// Per-PE buffer sets, paged on first touch: a stream over a P-PE machine
  /// costs memory only on the PEs that actually insert or relay items.
  sim::PagedTable<PeState> pes_;
  std::uint64_t items_ = 0;
  std::uint64_t routed_items_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batch_bytes_ = 0;
  std::uint64_t control_msgs_ = 0;
  std::uint64_t control_bytes_ = 0;
};

/// Typed stream bound to one entry method of a chare array.
template <auto Mfp>
class Stream {
  using Traits = detail::MfpTraits<decltype(Mfp)>;

 public:
  using Element = typename Traits::Chare;
  using Item = typename Traits::Argument;

  template <class Ix>
  Stream(Runtime& rt, const ArrayProxy<Element, Ix>& target, std::size_t buffer_items)
      : core_(std::make_shared<Core>(rt, target.id(), buffer_items)) {}

  template <class Ix>
  void send(const Ix& dest, const Item& item) const {
    core_->insert_typed(IndexTraits<Ix>::encode(dest), Registry::entry_of<Mfp>(),
                        Registry::direct_invoker<Mfp>(), item);
  }

  void flush_all() const { core_->flush_all(); }
  const Core& core() const { return *core_; }

 private:
  std::shared_ptr<Core> core_;
};

}  // namespace charm::tram
