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
// prioritized PDES events) go to a MinHeap (sim/min_heap.hpp) of
// {arrival, seq, priority, slot} keys.  pop() merges the two by comparing
// the ring head against the heap root under the full (priority, arrival,
// seq) order, so the served sequence is that of a single priority queue.
// After a FIFO pop it prefetches the new ring head's slot: that message is
// the one the PE most likely runs next.
//
// Every touched PE embeds one queue, so an idle queue owns nothing: the ring
// is an owned array sized on the first default-priority push, and the heap
// is created by the first message with a non-default priority.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/min_heap.hpp"

namespace sim {

class ReadyQueue {
 public:
  using SlotId = EventQueue::SlotId;

  /// Priority class served by the FIFO fast path.
  static constexpr int kFifoPriority = 0;

  bool empty() const { return fifo_count_ == 0 && heap_empty(); }
  std::size_t size() const { return fifo_count_ + (heap_ ? heap_->size() : 0); }

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
      if (fifo_count_ == capacity_) grow_ring();
      ring_[(head_ + fifo_count_) & (capacity_ - 1)] = id;
      ++fifo_count_;
    } else {
      if (!heap_) heap_ = std::make_unique<MinHeap<Key, Before>>();
      heap_->push(Key{e.time, e.seq, e.priority, id});
    }
  }

  /// Pops the slot id of the best message under (priority, arrival, seq).
  /// The slot stays live; the caller releases it.
  SlotId pop(const EventQueue& arena) {
    if (fifo_count_ == 0) return heap_->pop().slot;
    if (!heap_empty()) {
      const Event& f = arena.slot(ring_[head_]);
      if (!Before{}(Key{f.time, f.seq, kFifoPriority, 0}, heap_->top()))
        return heap_->pop().slot;
    }
    const SlotId id = ring_[head_];
    head_ = (head_ + 1) & (capacity_ - 1);
    --fifo_count_;
    if (fifo_count_ != 0) arena.prefetch(ring_[head_]);
    return id;
  }

  /// Host bytes held by the ring and heap storage (memory accounting only).
  std::size_t memory_bytes() const {
    return capacity_ * sizeof(SlotId) +
           (heap_ ? sizeof(*heap_) + heap_->memory_bytes() : 0);
  }

 private:
  struct Key {
    Time arrival;
    std::uint64_t seq;
    int priority;
    SlotId slot;
  };

  struct Before {
    bool operator()(const Key& a, const Key& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.arrival != b.arrival) return a.arrival < b.arrival;
      return a.seq < b.seq;
    }
  };

  bool heap_empty() const { return !heap_ || heap_->empty(); }

  SlotId back() const { return ring_[(head_ + fifo_count_ - 1) & (capacity_ - 1)]; }

  void grow_ring() {
    // Start tiny: with a million touched PEs each holding a ring, the
    // initial capacity multiplies into real memory.  PEs with deeper queues
    // still double up to whatever they need.
    const std::uint32_t cap = capacity_ == 0 ? 2 : capacity_ * 2;
    auto next = std::make_unique<SlotId[]>(cap);
    for (std::uint32_t i = 0; i < fifo_count_; ++i)
      next[i] = ring_[(head_ + i) & (capacity_ - 1)];
    ring_ = std::move(next);
    capacity_ = cap;
    head_ = 0;
  }

  // FIFO ring (power-of-two capacity) of default-priority slot ids.
  std::unique_ptr<SlotId[]> ring_;
  std::uint32_t capacity_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t fifo_count_ = 0;
  // Everything else; created by the first non-default-priority message.
  std::unique_ptr<MinHeap<Key, Before>> heap_;
};

}  // namespace sim
