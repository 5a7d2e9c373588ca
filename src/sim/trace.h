// Per-transaction causal tracing.
//
// A TraceContext (packed transid + causal span id) rides on every
// net::Message. The OS layer keeps the context of the event currently being
// handled and stamps a fresh span — parented on the active one — onto each
// outgoing message, so the chain of sends, timer callbacks, and replies that
// realises one transaction forms a causal tree. Subsystems append fixed-size
// TraceEvents (no strings) to the simulation's TraceLog; Dump(transid)
// renders a deterministic per-transaction trace for tests and EXPERIMENTS.md.
//
// The log is off until a reader turns it on with set_enabled(true); from
// then on it keeps every event until the reader drains it with Clear().
// Nothing is ever overwritten or dropped.
//
// Storage is sharded per event loop: a record lands in the shard of the loop
// executing the current event, stamped with that event's total-order key
// (time, origin, seq). Reads merge the shards by key, then by record order
// within a shard, which reproduces the canonical event order — the same
// order at every worker count, because keys are assigned at schedule time,
// never by the executing thread.

#ifndef ENCOMPASS_SIM_TRACE_H_
#define ENCOMPASS_SIM_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/exec_context.h"

namespace encompass::sim {

/// Causal identity of the work a message (or handler) belongs to.
/// transid == 0 means "not associated with any transaction": such work is
/// never traced.
struct TraceContext {
  uint64_t transid = 0;  ///< packed tmf::Transid (home node + sequence)
  uint32_t span = 0;     ///< causal span id, unique per traced message

  bool active() const { return transid != 0; }
};

/// What happened. Values are stable identifiers used in test expectations;
/// append new kinds at the end.
enum class TraceEventKind : uint8_t {
  kMsgSend = 1,     ///< a=tag, b=dst node; parent=sender's active span
  kMsgDeliver = 2,  ///< a=tag; node=receiving node
  kTxnState = 3,    ///< Figure-3 transition: a=from, b=to (tmf::TxnState)
  kPhase1Start = 4,  ///< a=#audit forces requested, b=#remote children
  kPhase1Done = 5,   ///< a=1 if all votes yes, 0 otherwise
  kCommitRecord = 6,  ///< commit record forced to the MAT
  kPhase2Queued = 7,  ///< safe-delivery enqueued: a=tag, b=dst node
  kPhase2Recv = 8,    ///< phase-2 / abort record applied at a child
  kAbortStart = 9,    ///< abort decided; backout begins
  kAbortDone = 10,    ///< backout finished, txn reached kAborted
  kLockAcquire = 11,  ///< a=FNV hash of the lock key
  kLockRelease = 12,  ///< all locks of the txn released; a=#waiters granted
  kAuditForce = 13,   ///< a=#records forced in this force call
};

const char* TraceEventKindName(TraceEventKind kind);

/// One fixed-size trace record. `a` and `b` are kind-specific details as
/// documented on TraceEventKind.
struct TraceEvent {
  SimTime time = 0;
  uint64_t transid = 0;
  uint32_t span = 0;    ///< span this event belongs to
  uint32_t parent = 0;  ///< for kMsgSend: span of the sending context
  TraceEventKind kind = TraceEventKind::kMsgSend;
  uint16_t node = 0;  ///< node where the event happened
  uint32_t a = 0;
  uint32_t b = 0;

  std::string ToString() const;
};

/// Sharded append-only logs of TraceEvents, disabled until a reader
/// enables them.
class TraceLog {
 public:
  TraceLog() { EnsureShards(1); }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Issues the next causal span id for work happening on `node`. Span ids
  /// are `(node << 24) | per-node counter`: each node allocates from its own
  /// counter, so the ids a node hands out depend only on that node's local
  /// event order — not on how node events interleave globally. That keeps
  /// traces bit-stable across same-seed runs at any worker count. Node ids
  /// above 255 fold into the 8 tag bits; counters have 24 bits of headroom
  /// per node.
  uint32_t NewSpan(uint16_t node) {
    if (node >= span_counters_.size()) span_counters_.resize(node + 1, 0);
    return (static_cast<uint32_t>(node & 0xff) << 24) | ++span_counters_[node];
  }

  /// Appends `e` to the executing loop's shard (shard 0 outside event
  /// execution), stamped with the running event's key.
  void Record(const TraceEvent& e);

  size_t size() const;  ///< recorded events, all shards
  /// Events lost to a bound: always 0, the log keeps every event.
  size_t dropped() const { return 0; }
  /// Drains the log; a reader calls it once it has consumed the events.
  void Clear();

  /// All recorded events for one transaction, merged across shards into
  /// canonical (event key, record order) order.
  std::vector<TraceEvent> Events(uint64_t transid) const;

  /// Every recorded event across all transactions, in the same canonical
  /// order.
  std::vector<TraceEvent> AllEvents() const;

  /// Deterministic multi-line rendering of Events(transid).
  std::string Dump(uint64_t transid) const;

  /// Grows the shard set to `n`. Called by the engine as node loops are
  /// created; must not race with records (it runs during topology setup).
  void EnsureShards(size_t n);
  /// Pre-sizes the span counter table so NewSpan(node) never reallocates it
  /// on a worker thread.
  void EnsureNodeSpans(uint16_t node) {
    if (node >= span_counters_.size()) span_counters_.resize(node + 1, 0);
  }

 private:
  struct Rec {
    EventKey key;  // key of the event that recorded this
    TraceEvent e;
  };
  using Shard = std::vector<Rec>;  // in record order

  /// Events whose transid is `*transid` (every event when null), merged.
  std::vector<TraceEvent> Merge(const uint64_t* transid) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<uint32_t> span_counters_;  // per-node, see NewSpan
  bool enabled_ = false;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_TRACE_H_
