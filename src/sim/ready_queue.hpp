#pragma once
// Per-PE ready queue: messages that have arrived at a PE and wait for it to
// become free, served in (priority, arrival, seq) order.
//
// The queue stores no message.  Each arrived message stays in its
// EventQueue arena slot until its handler returns, and the ready queue holds
// only the 4-byte slot id — the emulator's equivalent of a Charm++
// scheduler queue holding a pointer to a message allocated once.
//
// Observation: almost all traffic is default-priority (0), and the machine
// delivers arrivals in globally nondecreasing (time, seq) order — so the
// default-priority class arrives *already sorted* and a plain FIFO ring of
// slot ids serves it in exactly heap order, with O(1) push/pop.  The ring
// head's (arrival, seq) is read from its arena Event, which already stores
// both.  Non-default priorities (a small minority: control messages,
// prioritized PDES events) go to a 4-ary min-heap of
// {arrival, seq, priority, slot} keys.  pop() merges the two by comparing
// the ring head against the heap root under the full (priority, arrival,
// seq) order, so the served sequence is that of a single priority queue.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace sim {

class ReadyQueue {
 public:
  using SlotId = EventQueue::SlotId;

  /// Priority class served by the FIFO fast path.
  static constexpr int kFifoPriority = 0;

  bool empty() const { return fifo_count_ == 0 && heap_.empty(); }
  std::size_t size() const { return fifo_count_ + heap_.size(); }

  /// Queues the message in slot `id` of `arena`; its priority, arrival
  /// (Event::time) and seq are read from the slot.
  void push(const EventQueue& arena, SlotId id) {
    const Event& e = arena.slot(id);
    if (e.priority == kFifoPriority) {
      // The machine hands arrivals over in nondecreasing (arrival, seq)
      // order, which is what makes the ring order-equivalent to the heap.
      assert(fifo_count_ == 0 || std::pair(arena.slot(back()).time,
                                           arena.slot(back()).seq) <
                                     std::pair(e.time, e.seq));
      if (fifo_count_ == ring_.size()) grow_ring();
      ring_[(head_ + fifo_count_) & (ring_.size() - 1)] = id;
      ++fifo_count_;
    } else {
      heap_push(Key{e.time, e.seq, e.priority, id});
    }
  }

  /// Pops the slot id of the best message under (priority, arrival, seq).
  /// The slot stays live; the caller releases it.
  SlotId pop(const EventQueue& arena) {
    if (fifo_count_ == 0) return heap_pop();
    if (!heap_.empty()) {
      const Event& f = arena.slot(ring_[head_]);
      if (!before(Key{f.time, f.seq, kFifoPriority, 0}, heap_.front()))
        return heap_pop();
    }
    const SlotId id = ring_[head_];
    head_ = (head_ + 1) & static_cast<std::uint32_t>(ring_.size() - 1);
    --fifo_count_;
    return id;
  }

  /// Host bytes held by the ring and heap storage (memory accounting only).
  std::size_t memory_bytes() const {
    return ring_.capacity() * sizeof(SlotId) + heap_.capacity() * sizeof(Key);
  }

 private:
  static constexpr std::size_t kArity = 4;

  struct Key {
    Time arrival;
    std::uint64_t seq;
    int priority;
    SlotId slot;
  };

  static bool before(const Key& a, const Key& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.seq < b.seq;
  }

  SlotId back() const {
    return ring_[(head_ + fifo_count_ - 1) & (ring_.size() - 1)];
  }

  void grow_ring() {
    // Start tiny: with a million touched PEs each holding a ring, the
    // initial capacity multiplies into real memory.  PEs with deeper queues
    // still double up to whatever they need.
    const std::size_t cap = ring_.empty() ? 2 : ring_.size() * 2;
    std::vector<SlotId> next(cap);
    for (std::size_t i = 0; i < fifo_count_; ++i)
      next[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(next);
    head_ = 0;
  }

  void heap_push(const Key& k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  SlotId heap_pop() {
    const SlotId out = heap_.front().slot;
    const Key item = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return out;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], item)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = item;
    return out;
  }

  // FIFO ring (power-of-two capacity) of default-priority slot ids.
  std::vector<SlotId> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t fifo_count_ = 0;
  // 4-ary min-heap fallback for everything else.
  std::vector<Key> heap_;
};

}  // namespace sim
