#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace sim {

EventQueue::SlotId EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const SlotId id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  if (slot_count_ == (chunks_.size() << kChunkShift))
    chunks_.push_back(std::make_unique<Event[]>(std::size_t{1} << kChunkShift));
  return slot_count_++;
}

Event& EventQueue::emplace(Time time, std::uint64_t seq, Event::Kind kind,
                           int pe, int priority, std::size_t bytes) {
  // Both fields of the packed key must fit, in every build type: a slot id
  // past 2^24 would corrupt the seq bits and silently reorder the run.
  if ((free_slots_.empty() && slot_count_ >= kMaxSlots) || seq >= kMaxSeq) {
    throw std::length_error(
        "sim::EventQueue: more than 2^24 live event slots or sequence number "
        "past 2^40");
  }
  if (bytes > kMaxBytes) {
    throw std::length_error("sim::EventQueue: message of 4 GiB or more");
  }
  // Park the event in an arena slot; only the 16-byte key takes part in the
  // sift, so the closure buffer inside the event's handler is never touched
  // again until the handler runs in place.
  const SlotId id = acquire_slot();
  Event& e = slot(id);
  e.time = time;
  e.seq = seq;
  e.pe = pe;
  e.priority = priority;
  e.bytes = static_cast<std::uint32_t>(bytes);
  e.kind = kind;
  // e.fn is empty here: slots are recycled only through release(), which
  // destroys the handler.

  // Sift up with a hole: shift later parents down, then drop the key in.
  const Key key{time, (seq << kSlotBits) | id};
  std::size_t i = heap_.size();
  heap_.push_back(Key{});
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  return e;
}

EventQueue::SlotId EventQueue::detach_top() {
  const SlotId top = top_id();
  const Key last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return top;

  // Sift the former last key down from the root, moving the earliest child
  // up into the hole at each level.
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  free_slots_.reserve(n);
  while ((chunks_.size() << kChunkShift) < n)
    chunks_.push_back(std::make_unique<Event[]>(std::size_t{1} << kChunkShift));
}

}  // namespace sim
