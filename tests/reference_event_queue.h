// ReferenceEventQueue: the pre-overhaul EventQueue implementation, kept
// verbatim as a differential-testing reference. It stores callbacks as
// std::function and tracks cancellation with pending_/cancelled_ hash sets
// keyed by sequence number — the slow but obviously-correct shape the
// production queue's EventFn + generation-stamped slots must match exactly:
// same firing order, same live-size accounting, same no-op cancel semantics.

#ifndef ENCOMPASS_TESTS_REFERENCE_EVENT_QUEUE_H_
#define ENCOMPASS_TESTS_REFERENCE_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.h"  // for EventKey / SimTime

namespace encompass::sim::testing {

class ReferenceEventQueue {
 public:
  using EventId = uint64_t;

  explicit ReferenceEventQueue(uint16_t origin = 0) : origin_(origin) {}

  EventId Schedule(SimTime when, std::function<void()> fn) {
    uint64_t seq = next_seq_++;
    heap_.push(Event{EventKey{when, origin_, seq}, true, std::move(fn)});
    pending_.insert(seq);
    ++live_count_;
    return seq;
  }

  void ScheduleKeyed(const EventKey& key, std::function<void()> fn) {
    heap_.push(Event{key, false, std::move(fn)});
    ++live_count_;
  }

  uint64_t IssueSeq() { return next_seq_++; }

  /// Only a still-pending event can be cancelled; a fired, cancelled, or
  /// unknown id is a no-op (no tombstone, no live_count_ change). Returns
  /// whether the cancel took effect (for differential comparison).
  bool Cancel(EventId id) {
    if (pending_.erase(id) == 0) return false;
    cancelled_.insert(id);
    --live_count_;
    return true;
  }

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  const EventKey* NextKey() const {
    SkipCancelled();
    return heap_.empty() ? nullptr : &heap_.top().key;
  }

  SimTime NextTime() const {
    SkipCancelled();
    return heap_.empty() ? kNoDeadline : heap_.top().key.time;
  }

  std::function<void()> PopNext(EventKey* key) {
    SkipCancelled();
    assert(!heap_.empty());
    auto& top = const_cast<Event&>(heap_.top());
    *key = top.key;
    std::function<void()> fn = std::move(top.fn);
    if (top.local) pending_.erase(top.key.seq);
    heap_.pop();
    --live_count_;
    return fn;
  }

 private:
  struct Event {
    EventKey key;
    bool local;  // cancellable, seq drawn from this queue's numbering
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return b.key < a.key; }
  };

  void SkipCancelled() const {
    // Only local events consult the tombstone set: a keyed event's seq lives
    // in its sender's numbering and may collide with a cancelled local id.
    while (!heap_.empty() && heap_.top().local) {
      auto it = cancelled_.find(heap_.top().key.seq);
      if (it == cancelled_.end()) break;
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  uint16_t origin_;
  mutable std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<uint64_t> pending_;
  mutable std::unordered_set<uint64_t> cancelled_;
  size_t live_count_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace encompass::sim::testing

#endif  // ENCOMPASS_TESTS_REFERENCE_EVENT_QUEUE_H_
