#include "sim/event_queue.hpp"

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

Event& EventQueue::emplace(Time time, std::uint64_t seq, int pe, int priority,
                           std::size_t bytes) {
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
  // Park the message in an arena slot; only the 16-byte key takes part in
  // the sift, so the closure buffer inside the event's handler is never
  // touched again until the handler runs in place.
  const SlotId id = acquire_slot();
  Event& e = slot(id);
  e.time = time;
  e.seq = seq;
  e.pe = pe;
  e.priority = priority;
  e.bytes = static_cast<std::uint32_t>(bytes);
  // e.fn is empty here: slots are recycled only through release(), which
  // destroys the handler.
  arrivals_.push(Key{time, (seq << kIdBits) | id});
  return e;
}

void EventQueue::wake(Time time, std::uint64_t seq, int pe) {
  if (seq >= kMaxSeq || static_cast<std::uint64_t>(pe) >= kMaxPes) {
    throw std::length_error(
        "sim::EventQueue: sequence number past 2^40 or PE id outside "
        "[0, 2^24)");
  }
  wakeups_.push(Key{time, (seq << kIdBits) | static_cast<std::uint64_t>(pe)});
}

Time EventQueue::next_time() const {
  return wakeup_first() ? wakeups_.top().time : arrivals_.top().time;
}

EventQueue::Next EventQueue::pop() {
  if (wakeup_first()) {
    const Key k = wakeups_.pop();
    return Next{k.time, true, id_of(k)};
  }
  const Key k = arrivals_.pop();
  // The machine reads the next arrival's header (its PE, priority and seq)
  // as soon as it is popped; start loading it now.
  if (!arrivals_.empty())
    __builtin_prefetch(&slot(id_of(arrivals_.top())));
  return Next{k.time, false, id_of(k)};
}

}  // namespace sim
