#include "sim/event_queue.h"

#include <cassert>

namespace encompass::sim {

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  const uint64_t seq = next_seq_++;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    assert(slot < (1u << kSlotBits) && "too many concurrently pending events");
    slots_.push_back(1);
  }
  const uint32_t gen = slots_[slot];
  heap_.push(Event{EventKey{when, origin_, seq}, slot, gen, std::move(fn)});
  ++live_count_;
  return (static_cast<EventId>(gen) << kSlotBits) | slot;
}

void EventQueue::ScheduleKeyed(const EventKey& key, EventFn fn) {
  heap_.push(Event{key, kNoSlot, 0, std::move(fn)});
  ++live_count_;
}

void EventQueue::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id & ((1u << kSlotBits) - 1));
  const auto gen = static_cast<uint32_t>(id >> kSlotBits) & kGenMask;
  // Live iff the id's generation matches its slot's current one. Id 0 (gen 0)
  // and arbitrary stale ids fail the match: generations are never 0.
  if (slot >= slots_.size() || slots_[slot] != gen) return;
  RetireSlot(slot);
  --live_count_;
  // The heap entry stays behind with the old generation stamped on it;
  // SkipCancelled drops it when it reaches the top.
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && Dead(heap_.top())) {
    heap_.pop();
  }
}

const EventKey* EventQueue::NextKey() const {
  SkipCancelled();
  return heap_.empty() ? nullptr : &heap_.top().key;
}

SimTime EventQueue::NextTime() const {
  SkipCancelled();
  return heap_.empty() ? kNoDeadline : heap_.top().key.time;
}

EventFn EventQueue::PopNext(EventKey* key) {
  SkipCancelled();
  assert(!heap_.empty());
  // priority_queue::top() is const; the callback is moved out via const_cast,
  // which is safe because the element is popped immediately after.
  auto& top = const_cast<Event&>(heap_.top());
  *key = top.key;
  EventFn fn = std::move(top.fn);
  if (top.slot != kNoSlot) RetireSlot(top.slot);
  heap_.pop();
  --live_count_;
  return fn;
}

}  // namespace encompass::sim
