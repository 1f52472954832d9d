#pragma once
// Global future-event list for the machine emulator: an indexed 4-ary
// min-heap over (time, seq).  The seq tie-break makes the whole simulation
// deterministic — (time, seq) is a total order, so any correct heap pops the
// exact same event sequence.
//
// Layout: the heap orders small POD keys {time, seq·slot}; the events
// themselves (which carry an inline UniqueFn closure, so moving one is an
// indirect call plus a buffer copy) live in a chunked slot arena with a free
// list.  A message is written into its slot once, at send, and is invoked in
// place: detach_top() removes only the heap key and hands out the slot id,
// the machine parks that 4-byte id in the destination PE's ready queue, and
// the slot is release()d after the handler returns.  Sifts touch only
// 16-byte keys, and the 4-ary layout halves the tree depth versus a binary
// heap.  The arena grows chunk by chunk with stable addresses, so a burst of
// traffic never moves a pending event — and a handler running from its own
// slot stays valid while it sends messages that grow the arena.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/unique_fn.hpp"

namespace sim {

using Time = double;
using Handler = UniqueFn;

// Layout: a 32-byte header, then the 96-byte handler starting at a 16-byte
// boundary, so an Event is exactly two cache lines and every runtime message
// closure (up to UniqueFn::kInlineBytes) lives in the slot itself.
struct Event {
  enum class Kind : std::uint8_t { kArrive, kExec };

  Time time = 0;             // kArrive: arrival time at the destination PE
  std::uint64_t seq = 0;
  int pe = 0;
  int priority = 0;          // message priority (lower runs first); kArrive only
  std::uint32_t bytes = 0;   // payload size; kArrive only
  Kind kind = Kind::kArrive;
  Handler fn;                // kArrive only
};

static_assert(offsetof(Event, fn) == 32, "Event header must stay 32 bytes");
static_assert(sizeof(Event) == 128, "Event must stay two cache lines");

class EventQueue {
 public:
  /// Arena slot id.  Valid from emplace() until release().
  using SlotId = std::uint32_t;

  /// Limits of the packed heap key (see Key): more live slots or a larger
  /// sequence number makes emplace() throw std::length_error.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);
  /// Largest message size the 32-bit Event::bytes field holds.
  static constexpr std::size_t kMaxBytes = UINT32_MAX;

  /// Events in the heap; detached slots are not counted.
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Allocates an arena slot and heap key for an event at (time, seq), fills
  /// in the POD fields, and returns the slot so the caller can move the
  /// handler straight in.  The handler slot is guaranteed empty on return.
  /// Throws std::length_error when kMaxSlots slots are live, seq reaches
  /// kMaxSeq, or bytes exceeds kMaxBytes.
  Event& emplace(Time time, std::uint64_t seq, Event::Kind kind, int pe,
                 int priority, std::size_t bytes);

  /// The earliest event (ties broken by insertion order).
  const Event& top() const { return slot(top_id()); }

  /// Removes the earliest event's heap key and returns its slot id.  The
  /// event stays in its slot, handler included, until release().
  SlotId detach_top();

  /// The event in a live slot.  The reference stays valid across later
  /// emplace() calls (chunks never move) until the slot is released.
  Event& slot(SlotId s) { return chunks_[s >> kChunkShift][s & kChunkMask]; }
  const Event& slot(SlotId s) const {
    return chunks_[s >> kChunkShift][s & kChunkMask];
  }

  /// Returns a detached slot to the free list; anything left in its handler
  /// is destroyed.
  void release(SlotId s) {
    slot(s).fn.reset();
    free_slots_.push_back(s);
  }

  /// Pre-sizes the key heap and slot arena.  Safe mid-run (the arena only
  /// appends chunks; addresses are stable), so Machine can grow the
  /// reservation as the touched-PE population grows instead of paying for
  /// the configured P up front.
  void reserve(std::size_t n);

  /// Host bytes resident in the heap, arena chunks, and free list.
  std::size_t memory_bytes() const {
    return heap_.capacity() * sizeof(Key) +
           chunks_.size() * ((std::size_t{1} << kChunkShift) * sizeof(Event)) +
           chunks_.capacity() * sizeof(chunks_[0]) +
           free_slots_.capacity() * sizeof(SlotId);
  }

 private:
  static constexpr std::size_t kArity = 4;

  // 16-byte heap key: the arena slot id rides in the low kSlotBits of the
  // packed word, under the (unique, monotone) sequence number.  Comparing
  // the packed words orders by seq alone — the slot bits can never decide a
  // comparison because no two keys share a seq.  A slot stays live from
  // send until its handler returns, so messages waiting in ready queues
  // count against the 2^24 live slots as well as those in the heap; with
  // 2^40 sequence numbers both are far beyond anything the emulator runs,
  // and emplace() checks both limits in every build type.
  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;

  struct Key {
    Time time;
    std::uint64_t seq_slot;  // (seq << kSlotBits) | slot
  };

  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
  }

  // Chunked arena: fixed-size chunks give every event a stable address, so
  // arena growth allocates one chunk instead of moving every pending event
  // (Event moves run the closure's relocate hook — an indirect call each),
  // and a handler invoked in place survives growth during its own run.
  static constexpr unsigned kChunkShift = 8;  // 256 events per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  SlotId top_id() const {
    return static_cast<SlotId>(heap_.front().seq_slot & kSlotMask);
  }

  SlotId acquire_slot();

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out so far (high-water mark)
  std::vector<SlotId> free_slots_;
};

}  // namespace sim
