#pragma once
// Global future-event list for the machine emulator: two 4-ary min-heaps
// over (time, seq) that share one sequence counter — message arrivals, and
// PE wake-ups.  The seq tie-break makes the whole simulation deterministic:
// (time, seq) is a total order over both heaps together, and pop() takes the
// earlier of the two tops, so any correct heap pops the exact same event
// sequence a single heap over every event would.
//
// Layout: the heaps order small POD keys {time, seq·id}.  A wake-up is just
// that key, with the PE in the id bits.  An arrival's message (which
// carries an inline UniqueFn closure, so moving one is an indirect call plus
// a buffer copy) lives in a chunked slot arena with a free list, and its key
// holds the slot id.  A message is written into its slot once, at send, and
// is invoked in place: pop() removes only the heap key and hands out the
// slot id, the machine parks that 4-byte id in the destination PE's ready
// queue, and the slot is release()d after the handler returns.  Sifts touch
// only 16-byte keys.  Storage follows traffic: nothing is reserved up
// front, the arena grows one 256-event chunk at a time when its free list
// runs dry, and the heaps grow by vector doubling, so the footprint is the
// high-water mark of events in flight, however many PEs the run touches.
// Chunks keep stable addresses, so a burst of traffic never moves a pending
// message — and a handler running from its own slot stays valid while it
// sends messages that grow the arena.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/min_heap.hpp"
#include "sim/unique_fn.hpp"

namespace sim {

using Time = double;
using Handler = UniqueFn;

// A message in flight or waiting in a ready queue.  Layout: a 32-byte
// header, then the 96-byte handler starting at a 16-byte boundary, so an
// Event is exactly two cache lines and every runtime message closure (up to
// UniqueFn::kInlineBytes) lives in the slot itself.
struct Event {
  Time time = 0;             // arrival time at the destination PE
  std::uint64_t seq = 0;
  int pe = 0;                // destination PE
  int priority = 0;          // message priority (lower runs first)
  std::uint32_t bytes = 0;   // payload size
  Handler fn;
};

static_assert(offsetof(Event, fn) == 32, "Event header must stay 32 bytes");
static_assert(sizeof(Event) == 128, "Event must stay two cache lines");

class EventQueue {
 public:
  /// Arena slot id.  Valid from emplace() until release().
  using SlotId = std::uint32_t;

  /// Limits of the packed heap key (see Key): more live slots, a PE id of
  /// kMaxPes or more, or a larger sequence number makes emplace() or wake()
  /// throw std::length_error.
  static constexpr unsigned kIdBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kIdBits;
  static constexpr std::uint64_t kMaxPes = kMaxSlots;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kIdBits);
  /// Largest message size the 32-bit Event::bytes field holds.
  static constexpr std::size_t kMaxBytes = UINT32_MAX;

  /// What pop() removed: a wake-up of PE `id`, or the arrival of the
  /// message in arena slot `id`.
  struct Next {
    Time time;
    bool wakeup;
    std::uint32_t id;
  };

  /// Arrivals and wake-ups in the heaps; popped slots are not counted.
  bool empty() const { return arrivals_.empty() && wakeups_.empty(); }
  std::size_t size() const { return arrivals_.size() + wakeups_.size(); }

  /// Queues the arrival of a message at (time, seq): allocates an arena
  /// slot, fills in the POD fields, and returns the slot so the caller can
  /// move the handler straight in.  The handler slot is guaranteed empty on
  /// return.  Throws std::length_error when kMaxSlots slots are live, seq
  /// reaches kMaxSeq, or bytes exceeds kMaxBytes.
  Event& emplace(Time time, std::uint64_t seq, int pe, int priority,
                 std::size_t bytes);

  /// Queues a wake-up of `pe` at (time, seq).  It takes no arena slot.
  /// Throws std::length_error when seq reaches kMaxSeq or pe is out of
  /// [0, kMaxPes).
  void wake(Time time, std::uint64_t seq, int pe);

  /// Time of the earliest event.  Precondition: !empty().
  Time next_time() const;

  /// Removes the earliest event (ties broken by seq) and returns it.  An
  /// arrival's message stays in its slot, handler included, until
  /// release().  Precondition: !empty().
  Next pop();

  /// The event in a live slot.  The reference stays valid across later
  /// emplace() calls (chunks never move) until the slot is released.
  Event& slot(SlotId s) { return chunks_[s >> kChunkShift][s & kChunkMask]; }
  const Event& slot(SlotId s) const {
    return chunks_[s >> kChunkShift][s & kChunkMask];
  }

  /// Starts loading both cache lines of a live slot: the machine reads the
  /// header and runs the handler of a queued message long after its
  /// arrival has left the caches.
  void prefetch(SlotId s) const {
    const char* p = reinterpret_cast<const char*>(&slot(s));
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
  }

  /// Returns a popped slot to the free list; anything left in its handler
  /// is destroyed.
  void release(SlotId s) {
    slot(s).fn.reset();
    free_slots_.push_back(s);
  }

  /// Host bytes resident in both heaps, arena chunks, and free list.
  std::size_t memory_bytes() const {
    return arrivals_.memory_bytes() + wakeups_.memory_bytes() +
           chunks_.size() * ((std::size_t{1} << kChunkShift) * sizeof(Event)) +
           chunks_.capacity() * sizeof(chunks_[0]) +
           free_slots_.capacity() * sizeof(SlotId);
  }

 private:
  // 16-byte heap key: the arena slot id (arrivals) or the PE (wake-ups)
  // rides in the low kIdBits of the packed word, under the (unique,
  // monotone) sequence number.  Comparing the packed words orders by seq
  // alone — the id bits can never decide a comparison because no two keys,
  // in either heap, share a seq.  A slot stays live from send until its
  // handler returns, so messages waiting in ready queues count against the
  // 2^24 live slots as well as those in the heap; with 2^40 sequence
  // numbers both are far beyond anything the emulator runs, and emplace()
  // and wake() check every limit in every build type.
  static constexpr std::uint64_t kIdMask = kMaxSlots - 1;

  struct Key {
    Time time;
    std::uint64_t seq_id;  // (seq << kIdBits) | id
  };

  struct Earlier {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq_id < b.seq_id;
    }
  };

  static std::uint32_t id_of(const Key& k) {
    return static_cast<std::uint32_t>(k.seq_id & kIdMask);
  }

  // Chunked arena: fixed-size chunks give every event a stable address, so
  // arena growth allocates one chunk instead of moving every pending event
  // (Event moves run the closure's relocate hook — an indirect call each),
  // and a handler invoked in place survives growth during its own run.
  static constexpr unsigned kChunkShift = 8;  // 256 events per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  /// True when the earliest event is a wake-up.  Precondition: !empty().
  bool wakeup_first() const {
    return !wakeups_.empty() &&
           (arrivals_.empty() || Earlier{}(wakeups_.top(), arrivals_.top()));
  }

  SlotId acquire_slot();

  MinHeap<Key, Earlier> arrivals_;
  // At most one key per PE: the machine queues a wake-up only for a PE that
  // has none pending.
  MinHeap<Key, Earlier> wakeups_;
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out so far (high-water mark)
  std::vector<SlotId> free_slots_;
};

}  // namespace sim
