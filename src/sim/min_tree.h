// MinTree: a tournament (winner) tree over the per-loop next-event keys.
//
// The coordinator needs "which loop holds the earliest pending event" after
// every serial-phase event and at every round boundary. Rescanning all loops
// costs O(loops) per query through a pointer-chasing virtual-ish path
// (queue heads live in separate allocations); the tree keeps a leaf per loop
// shard in one contiguous array and repairs only the root path of leaves
// whose queue actually changed — O(log loops) per update, O(1) for the min.
//
// Leaves hold full EventKeys (not just times) so serial execution can break
// time ties in canonical (time, origin, seq) order across loops, exactly as
// the old full scan did. An empty queue parks its leaf at the +infinity
// sentinel key.

#ifndef ENCOMPASS_SIM_MIN_TREE_H_
#define ENCOMPASS_SIM_MIN_TREE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace encompass::sim {

class MinTree {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Grows to `n` leaves (never shrinks). New leaves start empty. Existing
  /// leaf keys survive; internal nodes are rebuilt.
  void Resize(size_t n) {
    if (n <= size_) return;
    size_t cap = cap_ == 0 ? 1 : cap_;
    while (cap < n) cap *= 2;
    size_ = n;
    if (cap != cap_) {
      cap_ = cap;
      keys_.resize(cap_, InfKey());
      win_.assign(2 * cap_, 0);
      for (uint32_t i = 0; i < cap_; ++i) win_[cap_ + i] = i;
      for (size_t j = cap_ - 1; j >= 1; --j) Repair(j);
    }
  }

  size_t size() const { return size_; }

  /// Sets leaf `i` to `key` (nullptr = empty) and repairs its root path.
  void Set(size_t i, const EventKey* key) {
    assert(i < size_);
    keys_[i] = key != nullptr ? *key : InfKey();
    for (size_t j = (cap_ + i) / 2; j >= 1; j /= 2) Repair(j);
  }

  const EventKey& KeyAt(size_t i) const { return keys_[i]; }

  /// Leaf index holding the smallest key; kNone if every leaf is empty.
  uint32_t MinIndex() const {
    if (cap_ == 0) return kNone;
    const uint32_t w = win_[1];
    return keys_[w].time == kNoDeadline ? kNone : w;
  }

  /// Time of the smallest key; kNoDeadline if every leaf is empty.
  SimTime MinTime() const {
    return cap_ == 0 ? kNoDeadline : keys_[win_[1]].time;
  }

 private:
  static EventKey InfKey() {
    return EventKey{kNoDeadline, 0xffff, UINT64_MAX};
  }

  void Repair(size_t j) {
    const uint32_t l = win_[2 * j], r = win_[2 * j + 1];
    win_[j] = keys_[r] < keys_[l] ? r : l;
  }

  size_t size_ = 0;  // leaves in use
  size_t cap_ = 0;   // power-of-two leaf capacity
  std::vector<EventKey> keys_;
  std::vector<uint32_t> win_;  // win_[1] = root; win_[cap_+i] = i
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_MIN_TREE_H_
