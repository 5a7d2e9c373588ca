// The event queue at the heart of the deterministic simulation: a priority
// queue of EventKey -> callback, with cancellation support.
//
// Events are totally ordered by EventKey = (time, origin, seq):
//   * time   — the simulated firing time;
//   * origin — the node whose schedule sequence stamped the event (0 for
//     global/serial work). Ties at the same time order by origin, so global
//     events run before any node's events at the same instant;
//   * seq    — the origin's monotone schedule counter; ties within one
//     origin fire in schedule order.
// The key is assigned when the event is scheduled, by the scheduling node —
// never by the executing thread — so the total order is a property of the
// simulation's history, identical no matter how execution is interleaved.
//
// Hot-path representation: callbacks are EventFn (inline small-buffer
// storage, no heap allocation for typical captures), and cancellation uses
// generation-stamped slots instead of hashed id sets. Every locally
// scheduled event borrows a slot from a free list; its EventId packs
// (generation << kSlotBits) | slot. Cancel and fire both retire the slot by
// bumping its generation, so a stale id — already fired, already cancelled,
// or plain garbage — can never match a live slot: the no-op guarantees cost
// one array load instead of two hash probes per schedule/cancel/pop.
//
// The heap holds live state, not history: a cancelled entry stays in place
// only until dead entries outnumber 2 * live + 64, when Cancel compacts the
// heap (drop the dead, make_heap the rest). Each compaction removes more
// than half the entries, each of them one cancel, so it costs O(1)
// amortised per cancel; and since keys are unique, the pop order is the
// same as if the dead entries had been skipped at the top.

#ifndef ENCOMPASS_SIM_EVENT_QUEUE_H_
#define ENCOMPASS_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "sim/event_fn.h"

namespace encompass::sim {

/// Handle for a scheduled event; used to cancel timers. Opaque; never 0 for
/// a live event (generations start at 1), so 0 can serve as "no timer".
using EventId = uint64_t;

/// Total order on simulation events; see file comment.
struct EventKey {
  SimTime time = 0;
  uint16_t origin = 0;
  uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.seq < b.seq;
  }
};

/// Min-heap of timed callbacks ordered by EventKey. One EventQueue belongs
/// to one event loop (one node, or the global loop); `origin` stamps the
/// keys of locally scheduled events.
class EventQueue {
 public:
  /// EventId layout: low kSlotBits = slot index, rest = that slot's
  /// generation at schedule time. Simulation packs the owning loop's shard
  /// above these, so local ids must stay within kSlotBits + kGenBits.
  static constexpr int kSlotBits = 20;
  static constexpr int kGenBits = 28;

  explicit EventQueue(uint16_t origin = 0) : origin_(origin) {}

  uint16_t origin() const { return origin_; }

  /// Schedules `fn` to fire at absolute time `when`, stamped with this
  /// queue's origin and next sequence number. Returns a handle for Cancel.
  EventId Schedule(SimTime when, EventFn fn);

  /// Inserts an event carrying a foreign key (a cross-node post stamped by
  /// its sender). Keyed events are not cancellable: their seq lives in the
  /// sender's numbering and they carry no local slot.
  void ScheduleKeyed(const EventKey& key, EventFn fn);

  /// Draws the next local sequence number; used to stamp keys of cross-node
  /// posts originating here.
  uint64_t IssueSeq() { return next_seq_++; }

  /// Cancels a pending locally-scheduled event. Cancelling an already-fired,
  /// already-cancelled, or unknown event is a true no-op (no tombstone, no
  /// accounting change): the id's generation no longer matches its slot.
  /// O(1) amortised; the dead heap entry is dropped when it reaches the top
  /// or when the heap is compacted (see file comment).
  void Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Key of the earliest pending event; nullptr if empty.
  const EventKey* NextKey() const;

  /// Time of the earliest pending event; kNoDeadline if empty.
  SimTime NextTime() const;

  /// Pops and returns the earliest event's callback, setting *key to its
  /// event key. Precondition: !empty().
  EventFn PopNext(EventKey* key);

  /// Pop that only reports the firing time.
  EventFn PopNext(SimTime* when) {
    EventKey key;
    EventFn fn = PopNext(&key);
    *when = key.time;
    return fn;
  }

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;
  static constexpr uint32_t kGenMask = (1u << kGenBits) - 1;

  struct Event {
    EventKey key;
    uint32_t slot;  // kNoSlot for keyed (non-cancellable) inserts
    uint32_t gen;   // the slot's generation when scheduled
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return b.key < a.key; }
  };

  bool Dead(const Event& e) const {
    return e.slot != kNoSlot && slots_[e.slot] != e.gen;
  }
  void SkipCancelled() const;
  /// Drops every dead entry and re-heapifies the survivors.
  void Compact();
  void RetireSlot(uint32_t slot) {
    slots_[slot] = (slots_[slot] + 1) & kGenMask;
    if (slots_[slot] == 0) slots_[slot] = 1;  // gen 0 is reserved for "never"
    free_slots_.push_back(slot);
  }

  uint16_t origin_;
  // Binary min-heap under Later (std::push_heap/pop_heap).
  mutable std::vector<Event> heap_;
  // slots_[s] is slot s's current generation; an id (or heap entry) is live
  // iff its stamped generation equals it. Generations start at 1 and bump on
  // fire and on cancel, so id 0 and recycled ids never match.
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_count_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_EVENT_QUEUE_H_
