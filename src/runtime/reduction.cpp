// Reductions over collections.
//
// Semantics are exact: contributions are combined as they arrive and a
// reduction completes when every element of the collection has contributed to
// that sequence number.  Elements contribute in program order; each element's
// n-th contribution joins the collection's n-th reduction.
//
// Two topologies (DESIGN.md §10):
//
//  * kFlat (seed behavior, byte-stable figure stats): contributions combine
//    at a central slot and the cost of the k-ary combine tree is *modeled*
//    as a critical-path wave after the last contribution.
//
//  * kTree: contributions combine into a per-PE partial; once every element
//    has contributed the wave is frozen and each partial routes up a k-ary
//    spanning tree (arity = tree_fanout, root = PE 0) as a real counted
//    message, combining per level, until rank 0 holds the full result and
//    invokes the callback.  Only PEs that hold partials — and their
//    ancestors — participate, so a reduction contributed from one PE costs
//    O(depth) messages, not O(P).
//
// Contribution buffers are pooled (NumsPool / PayloadPool) and map nodes are
// recycled, so steady-state POD sum/min/max reductions allocate nothing
// (operator-new-counting gate in tests/core/test_queues.cpp).

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "runtime/runtime.hpp"
#include "runtime/spanning_tree.hpp"

namespace charm {

namespace {

/// Elementwise combine of `nums` into `slot` (slot.has_nums already true).
/// Matches the seed's widening rule: the slot grows to the widest
/// contribution seen, missing entries treated as 0.
void combine_nums(ReduxSlot& slot, const std::vector<double>& nums) {
  if (nums.size() > slot.nums.size()) slot.nums.resize(nums.size(), 0.0);
  for (std::size_t i = 0; i < nums.size(); ++i) {
    switch (slot.op) {
      case ReduceOp::kSum: slot.nums[i] += nums[i]; break;
      case ReduceOp::kMin: slot.nums[i] = std::min(slot.nums[i], nums[i]); break;
      case ReduceOp::kMax: slot.nums[i] = std::max(slot.nums[i], nums[i]); break;
    }
  }
}

/// First numeric contribution adopts the buffer and the op; later ones
/// combine elementwise.
void absorb_nums(ReduxSlot& slot, std::vector<double>&& nums, ReduceOp op,
                 Runtime& rt) {
  if (!slot.has_nums) {
    rt.release_nums(std::move(slot.nums));  // recycled slot may hold capacity
    slot.nums = std::move(nums);
    slot.has_nums = true;
    slot.op = op;
  } else {
    combine_nums(slot, nums);
    rt.release_nums(std::move(nums));
  }
}

/// Slot `seq` of `slots`, created on first use by re-keying the recycled
/// spare node when there is one (no allocation once a slot has retired).
ReduxSlot& slot_for(ReduxSlots& slots, std::uint64_t seq) {
  auto it = slots.map.find(seq);
  if (it != slots.map.end()) return it->second;
  if (!slots.spare) return slots.map[seq];
  slots.spare.key() = seq;
  slots.spare.mapped() = ReduxSlot{};
  return slots.map.insert(std::move(slots.spare)).position->second;
}

/// Retires slot `seq` of `slots`: moves its state out and keeps the map node
/// as the spare for the next slot_for.  Empty when the slot is gone
/// (cleared mid-wave by an FT rollback).
std::optional<ReduxSlot> retire_slot(ReduxSlots& slots, std::uint64_t seq) {
  auto node = slots.map.extract(seq);
  if (!node) return std::nullopt;
  std::optional<ReduxSlot> slot(std::move(node.mapped()));
  slots.spare = std::move(node);
  return slot;
}

/// Modeled wire size of a partial-combine message body (seq + count + op /
/// flags + the combined payload).
std::size_t partial_body_bytes(const ReduxSlot& part) {
  std::size_t body = 24 + 8 * part.nums.size();
  for (const std::vector<std::byte>& chunk : part.chunks)
    body += 8 + chunk.size();
  return body;
}

}  // namespace

void Runtime::contribute(ArrayElementBase& elem, std::vector<double> nums, bool has_nums,
                         ReduceOp op, std::vector<std::byte> chunk, bool has_chunk,
                         const Callback& cb) {
  Collection& c = collection(elem.col_);
  if (c.total_elements <= 0)
    throw std::logic_error("contribute on an empty collection");

  const std::uint64_t seq = elem.redux_seq_++;
  charge(kContributeCost);

  const bool tree = tree_collectives();
  ReduxSlot& slot =
      slot_for(tree ? c.local(elem.pe_).tree_partials() : c.redux, seq);
  if (has_nums) absorb_nums(slot, std::move(nums), op, *this);
  if (has_chunk) slot.chunks.push_back(std::move(chunk));
  ++slot.count;
  if (tree) {
    note_tree_contribution(c, seq, cb);
    return;
  }
  if (cb.valid()) slot.cb = cb;
  if (slot.count >= c.total_elements) complete_reduction(c, seq);
}

void Runtime::complete_reduction(Collection& c, std::uint64_t seq) {
  c.redux_floor = std::max(c.redux_floor, seq + 1);
  ReduxSlot slot = *retire_slot(c.redux, seq);
  ReductionResult result{std::move(slot.nums), std::move(slot.chunks)};

  // Critical-path cost of the combine tree after the last contribution.
  // The result moves straight into the completion closure (no shared_ptr
  // box; sim::Handler is move-only).  A timer post, counted by hand as a
  // message.
  const double delay = tree_wave_latency();
  ++outstanding_;
  ++msgs_sent_;
  machine_.post(0, now() + delay,
                [this, cb = std::move(slot.cb), result = std::move(result)]() mutable {
                  if (cb.valid()) cb.invoke(*this, std::move(result));
                  note_message_done();
                });
}

// ---- tree up-sweep (DESIGN.md §10) -------------------------------------------

void Runtime::note_tree_contribution(Collection& c, std::uint64_t seq,
                                     const Callback& cb) {
  ReduxSlot& g = slot_for(c.redux, seq);
  if (cb.valid()) g.cb = cb;
  ++g.count;
  if (g.count >= c.total_elements) start_tree_upsweep(c, seq);
}

void Runtime::start_tree_upsweep(Collection& c, std::uint64_t seq) {
  // Freeze: every element has contributed, so the set of PEs holding
  // partials is final.  Advance the floor exactly like the flat path and
  // retire the global bookkeeping slot.
  c.redux_floor = std::max(c.redux_floor, seq + 1);
  const Callback cb = retire_slot(c.redux, seq)->cb;

  const SpanningTree tree(active_pes_, /*root=*/0, cfg_.tree_fanout);
  const int P = active_pes_;
  redux_on_path_.assign(static_cast<std::size_t>(P), 0);

  // Mark every PE holding a partial, plus its ancestors up to rank 0.
  // Reduction ranks are the PE numbers themselves (root 0, where flat
  // completions fire), so rel == abs here.
  for (int p = 0; p < P; ++p) {
    const PeLocal* pl = c.local_if(p);
    if (pl == nullptr || pl->partials == nullptr || !pl->partials->map.contains(seq))
      continue;
    for (int r = p;;) {
      if (redux_on_path_[static_cast<std::size_t>(r)]) break;
      redux_on_path_[static_cast<std::size_t>(r)] = 1;
      if (r == 0) break;
      r = tree.parent(r);
    }
  }

  // Arm every participant with the number of child partials it must absorb;
  // sources (no on-path children) launch immediately via a kick posted to
  // their own PE so the partial departs from where the data lives.  The
  // kick keeps QD open by hand — timer posts are not counted.
  for (int r = 0; r < P; ++r) {
    if (!redux_on_path_[static_cast<std::size_t>(r)]) continue;
    ReduxSlot& part = slot_for(c.local(r).tree_partials(), seq);
    if (r == 0) part.cb = cb;  // rank 0's slot carries the callback
    int kids = 0;
    for (int i = 1; i <= tree.arity; ++i) {
      const long child = tree.child(r, i);
      if (child < P && redux_on_path_[static_cast<std::size_t>(child)]) ++kids;
    }
    part.wave_remaining = kids;
    if (kids == 0) {
      const CollectionId col = c.id;
      ++outstanding_;
      machine_.post(r, now(), [this, col, seq, r]() {
        send_tree_partial(col, seq, r);
        note_message_done();
      });
    }
  }
}

void Runtime::send_tree_partial(CollectionId col, std::uint64_t seq, int rank) {
  Collection& c = collection(col);
  if (rank == 0) {
    complete_tree_root(c, seq);
    return;
  }
  const SpanningTree tree(active_pes_, /*root=*/0, cfg_.tree_fanout);
  const int parent = tree.parent(rank);
  std::optional<ReduxSlot> part = retire_slot(c.local(rank).tree_partials(), seq);
  if (!part) return;
  const std::int64_t count = part->count;
  const bool has_nums = part->has_nums;
  const ReduceOp op = part->op;
  const std::size_t body = partial_body_bytes(*part);

  ++redux_partials_sent_;
  machine_.note_collective(body + Envelope::kHeaderBytes);
  send_control(parent, body,
               [this, col, seq, count, has_nums, op, nums = std::move(part->nums),
                chunks = std::move(part->chunks)]() mutable {
                 tree_partial_arrive(col, seq, count, has_nums, op,
                                     std::move(nums), std::move(chunks));
               });
}

void Runtime::tree_partial_arrive(CollectionId col, std::uint64_t seq,
                                  std::int64_t count, bool has_nums, ReduceOp op,
                                  std::vector<double>&& nums,
                                  std::vector<std::vector<std::byte>>&& chunks) {
  Collection& c = collection(col);
  const int rank = machine_.current_pe();
  ReduxSlot& part = slot_for(c.local(rank).tree_partials(), seq);
  charge(kContributeCost);  // per-level combine work
  part.count += count;
  if (has_nums) {
    absorb_nums(part, std::move(nums), op, *this);
  } else {
    release_nums(std::move(nums));
  }
  for (std::vector<std::byte>& chunk : chunks)
    part.chunks.push_back(std::move(chunk));
  // A partial arriving outside an armed wave (state cleared by an FT
  // rollback mid-flight) parks here until the next clear_reductions.
  if (--part.wave_remaining == 0) send_tree_partial(col, seq, rank);
}

void Runtime::complete_tree_root(Collection& c, std::uint64_t seq) {
  std::optional<ReduxSlot> root = retire_slot(c.local(0).tree_partials(), seq);
  if (!root || !root->cb.valid()) return;
  root->cb.invoke(*this, ReductionResult{std::move(root->nums), std::move(root->chunks)});
}

void Runtime::clear_reductions(CollectionId col) {
  // FT rollback: in-flight slots are dropped and the floor resets; restored
  // elements carry their own (mutually consistent) checkpointed sequence.
  // Per-PE partial combines — including waves an LB migration or failure
  // left mid-flight — are released too, or a stale partial would combine
  // into a later reduction that reuses its sequence number.
  Collection& c = collection(col);
  const auto release_all = [this](ReduxSlots& slots) {
    for (auto& [seq, slot] : slots.map) {
      release_nums(std::move(slot.nums));
      for (std::vector<std::byte>& chunk : slot.chunks)
        release_payload(std::move(chunk));
    }
    slots.map.clear();
  };
  release_all(c.redux);
  c.pe.for_each_touched([&release_all](std::size_t, PeLocal& pl) {
    if (pl.partials != nullptr) release_all(*pl.partials);
  });
  c.redux_floor = 0;
}

}  // namespace charm
