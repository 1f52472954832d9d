#pragma once
// A 4-ary min-heap of small POD keys: the one heap behind the machine's
// event list (arrivals and PE wake-ups) and the ready queue's prioritized
// messages.
//
// `Less` must be a strict total order on the keys the heap holds; then the
// pop sequence is fully determined by the pushed keys, whatever the heap's
// internal shape, which is what keeps the simulation deterministic.  Both
// sifts move a hole instead of swapping, and the 4-ary layout halves the
// tree depth of a binary heap: four children share one 64-byte line for the
// 16-byte keys the event list stores.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sim {

template <class Key, class Less>
class MinHeap {
 public:
  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  /// The least key.  Precondition: !empty().
  const Key& top() const { return keys_.front(); }

  void push(const Key& k) {
    // Sift up with a hole: shift greater parents down, then drop the key in.
    std::size_t i = keys_.size();
    keys_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Less{}(k, keys_[parent])) break;
      keys_[i] = keys_[parent];
      i = parent;
    }
    keys_[i] = k;
  }

  /// Removes and returns the least key.  Precondition: !empty().
  Key pop() {
    const Key out = keys_.front();
    const Key last = keys_.back();
    keys_.pop_back();
    const std::size_t n = keys_.size();
    if (n == 0) return out;
    // Sift the former last key down from the root, moving the least child
    // up into the hole at each level.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c)
        if (Less{}(keys_[c], keys_[best])) best = c;
      if (!Less{}(keys_[best], last)) break;
      keys_[i] = keys_[best];
      i = best;
    }
    keys_[i] = last;
    return out;
  }

  /// Host bytes held by the key storage.
  std::size_t memory_bytes() const { return keys_.capacity() * sizeof(Key); }

 private:
  static constexpr std::size_t kArity = 4;

  std::vector<Key> keys_;
};

}  // namespace sim
