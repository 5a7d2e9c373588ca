#include "sim/event_queue.h"

#include <algorithm>
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
  heap_.push_back(Event{EventKey{when, origin_, seq}, slot, gen, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return (static_cast<EventId>(gen) << kSlotBits) | slot;
}

void EventQueue::ScheduleKeyed(const EventKey& key, EventFn fn) {
  heap_.push_back(Event{key, kNoSlot, 0, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
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
  // SkipCancelled drops it when it reaches the top, or Compact sooner.
  if (heap_.size() > 2 * live_count_ + 64) Compact();
}

void EventQueue::Compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Event& e) { return Dead(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && Dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

const EventKey* EventQueue::NextKey() const {
  SkipCancelled();
  return heap_.empty() ? nullptr : &heap_.front().key;
}

SimTime EventQueue::NextTime() const {
  SkipCancelled();
  return heap_.empty() ? kNoDeadline : heap_.front().key.time;
}

EventFn EventQueue::PopNext(EventKey* key) {
  SkipCancelled();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event& top = heap_.back();
  *key = top.key;
  EventFn fn = std::move(top.fn);
  if (top.slot != kNoSlot) RetireSlot(top.slot);
  heap_.pop_back();
  --live_count_;
  return fn;
}

}  // namespace encompass::sim
