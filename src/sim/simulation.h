// Simulation: the deterministic run context shared by every simulated
// component — clocks, per-node event loops, PRNG streams, and statistics.
//
// The engine is a conservative parallel discrete-event simulator (PDES).
// Every simulated node owns an event loop (clock + event queue + PRNG
// stream); loop 0 is the global loop for setup code, fault injection, and
// topology events. Events carry a total-order key (time, origin node, origin
// sequence) assigned at schedule time, so "the order events fire in" is a
// property of the simulation's history, not of the thread interleaving that
// executes it.
//
// It runs a conservative round loop. Each round grants every node loop with
// pending work a horizon: loop i may run strictly below min(cap, min over
// other loops j of E_j + L(j→i)), where E_j is loop j's next event time and
// L(j→i) is the lookahead from j to i. No rollback is ever needed because
// node j can only affect node i at least L(j→i) in the future (Network posts
// cross-node work via PostToNode, never with a shorter delay).
// `parallel_workers` only sets how many threads run a round's loops: 1 runs
// them inline on the calling thread, N adds N-1 pool threads. Every thread
// count produces byte-identical same-seed traces and metrics. Step() is the
// reference: it fires the single globally least event key, and
// engine-identity tests compare the round loop against it.
//
// Lookahead is per ordered pair of nodes: Network::AddLink(a, b, l) feeds an
// incremental all-pairs table of least path latencies, so a 50ms WAN link in
// one corner of the cluster no longer throttles two nodes joined by a 1ms
// LAN link, and unlinked pairs contribute no bound at all. The table is a
// static lower bound — it only ever admits latencies that some declared-link
// path could achieve, so it stays valid when links flap down or routing
// takes longer paths. Code with no Network (tests, benches) declares its
// links the same way, pair by pair.
//
// Coordinator bookkeeping is incremental: a tournament tree (MinTree) over
// the per-loop next-event keys replaces the every-round full rescan, and
// cross-loop posts travel through per-sender outbox lanes — written only by
// the sending loop's worker, drained only by the coordinator between rounds
// — so concurrent posters never contend on a lock.

#ifndef ENCOMPASS_SIM_SIMULATION_H_
#define ENCOMPASS_SIM_SIMULATION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/sim_time.h"
#include "sim/event_queue.h"
#include "sim/exec_context.h"
#include "sim/min_tree.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace encompass::sim {

/// One per-node event loop: its own event queue and PRNG stream.
/// With a worker pool, cross-node posts made during a round are buffered in
/// the *sender's* outbox lanes (one per destination shard) rather than a
/// locked inbox on the receiver: each lane has exactly one writer (the sending
/// loop's worker), and the coordinator drains lanes between rounds (safe
/// because a cross-node post is always at least one link lookahead in the
/// future, past every horizon granted in the round).
struct NodeLoop {
  NodeLoop(uint16_t node_id, uint32_t shard_index, uint64_t rng_seed)
      : node(node_id), shard(shard_index), queue(node_id), rng(rng_seed) {}

  const uint16_t node;
  const uint32_t shard;  // index into Simulation::loops_ and the stat shards
  SimTime now = 0;  // time of the last event this loop fired
  EventQueue queue;
  encompass::Random rng;
  uint64_t executed = 0;
  SimTime horizon = kNoDeadline;  // exclusive execution bound, current round

  struct Post {
    EventKey key;
    EventFn fn;
  };
  // outbox[d] buffers this loop's in-round posts to destination shard d;
  // outbox_dsts lists the non-empty lanes so draining skips the rest.
  std::vector<std::vector<Post>> outbox;
  std::vector<uint32_t> outbox_dsts;
};

/// One deterministic simulated world. All simulated components hold a
/// pointer to their Simulation; nothing in the library touches wall-clock
/// time or global randomness.
class Simulation {
 public:
  /// `parallel_workers` is the number of threads that run a round (values
  /// below 1 mean 1); see the file comment. Every count produces
  /// byte-identical same-seed output.
  explicit Simulation(uint64_t seed = 1, int parallel_workers = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Inside event execution: the executing event's time (the owning loop's
  /// clock). Outside: the global high-water clock.
  SimTime Now() const {
    const internal::ExecContext* ec = internal::Exec();
    if (ec != nullptr && ec->sim == this) return ec->key.time;
    return now_;
  }

  /// Per-node PRNG stream, derived deterministically from (seed, node).
  /// Components attribute their draws to the node the drawing work belongs
  /// to, so the values a node sees depend only on that node's local draw
  /// order — never on how events from different nodes interleave globally.
  encompass::Random& RngFor(uint16_t node) { return EnsureLoop(node)->rng; }

  /// The seed this simulation was constructed with. Components deriving
  /// their own deterministic schedules (e.g. recovery retry jitter) fold it
  /// in so every derived stream replays bit-identically per seed.
  uint64_t seed() const { return seed_; }

  Stats& GetStats() { return stats_; }
  const Stats& GetStats() const { return stats_; }
  TraceLog& GetTrace() { return trace_; }

  /// Appends one causal trace event stamped with the current simulated time.
  /// No-op unless a reader has enabled tracing (it starts off), and when the
  /// context carries no transaction.
  void RecordTrace(TraceEventKind kind, const TraceContext& ctx, uint16_t node,
                   uint32_t a = 0, uint32_t b = 0, uint32_t parent = 0) {
    if (!trace_.enabled() || !ctx.active()) return;
    TraceEvent e;
    e.time = Now();
    e.transid = ctx.transid;
    e.span = ctx.span;
    e.parent = parent;
    e.kind = kind;
    e.node = node;
    e.a = a;
    e.b = b;
    trace_.Record(e);
  }

  /// Schedules `fn` to run `delay` microseconds from now (>= 0), on the
  /// loop of the node whose event is executing (loop 0 outside events).
  EventId After(SimDuration delay, EventFn fn);

  /// Schedules `fn` on `node`'s loop explicitly. Used where the OS layer
  /// schedules work for a node from outside that node's own event (process
  /// adoption, CPU regroup, message delivery hand-off).
  EventId AfterOn(uint16_t node, SimDuration delay, EventFn fn);
  EventId AtOn(uint16_t node, SimTime when, EventFn fn);

  /// Cross-node channel edge: schedules `fn` on `dst`'s loop, keyed with the
  /// *sender's* (origin, seq) stamp so deliveries fire in send order at any
  /// worker count. The only legal way for one node's event to schedule onto
  /// another running loop; `delay` must be at least the sender→dst lookahead
  /// (true for every network latency by construction). Not cancellable.
  void PostToNode(uint16_t dst, SimDuration delay, EventFn fn);

  void Cancel(EventId id);

  /// Runs the one event with the globally least key, if its time is at most
  /// `deadline`; returns whether it did. The reference the round loop is
  /// checked against: stepping to a deadline and then calling RunUntil on
  /// it fires exactly what RunUntil alone would.
  bool Step(SimTime deadline = kNoDeadline);

  /// Runs events until none are pending or `max_events` have fired.
  /// Returns the number of events processed. An unbounded Run uses the
  /// round loop; a bounded one steps event by event.
  size_t Run(size_t max_events = SIZE_MAX);

  /// Runs all events with time <= deadline, then advances every clock to
  /// exactly `deadline` (even if no event fired).
  void RunUntil(SimTime deadline);

  /// RunUntil(Now() + d).
  void RunFor(SimDuration d) { RunUntil(Now() + d); }

  bool Idle() const;
  size_t PendingEvents() const;
  uint64_t ExecutedEvents() const;

  /// Creates `node`'s loop (idempotent). Called by Network::AddNode so every
  /// simulated node has its loop before traffic starts.
  void EnsureNode(uint16_t node) { EnsureLoop(node); }

  /// Declares a link of `latency` between nodes `a` and `b` for lookahead
  /// purposes. Called by Network::AddLink; relaxes the all-pairs least-path
  /// latency table, which lower-bounds how soon any event on one node can
  /// affect another.
  void NoteLinkLatency(uint16_t a, uint16_t b, SimDuration latency);

  /// Conservative bound on how soon an event on `src` can affect `dst`: the
  /// least declared-link path latency src→dst. kNoDeadline if no path of
  /// declared links joins them (the pair cannot interact).
  SimDuration LookaheadBetween(uint16_t src, uint16_t dst) const;

  /// Publishes the engine's coordinator metrics (sim.rounds,
  /// sim.ready_loops, sim.inbox_posts counters and the sim.horizon_width
  /// histogram, horizon widths in µs) into GetStats(). The engine keeps
  /// these outside Stats during the run because they measure the *engine
  /// configuration*, not the simulated workload: folding them in eagerly
  /// would break byte-identity of Stats dumps across worker counts.
  /// Call between runs/rounds only. Idempotent-ish: counters publish deltas,
  /// the histogram is merged once per accumulation.
  void PublishEngineMetrics();

 private:
  // EventIds pack (loop shard << kSeqBits) | local id, where the local id is
  // the queue's (generation << slot-bits) | slot stamp.
  static constexpr int kSeqBits = EventQueue::kSlotBits + EventQueue::kGenBits;

  NodeLoop* EnsureLoop(uint16_t node);
  uint16_t CtxNode() const;
  // Whether the executing context may touch shard's queue directly: setup
  // code and global-loop events may touch any; a node's event only its own.
  bool MayTouch(uint32_t shard) const;
  EventId ScheduleOn(uint16_t node, SimTime when, EventFn fn);
  void ExecOne(NodeLoop* loop);
  void DrainOutboxes();
  void RunRounds(SimTime deadline);
  void RunLoopTo(NodeLoop* loop, SimTime horizon);
  void StartWorkers();
  void WorkerMain();
  void ClaimLoop(uint64_t round);

  // --- incremental next-event tracking (coordinator thread only) -----------
  // Loops whose queue head may have changed are flagged dirty; RefreshDirty
  // re-reads just those heads into the tournament tree. Leaf 0 stays at +∞
  // permanently: the global loop is consulted directly where it matters, so
  // the tree's min ranges over node loops only.
  void MarkDirty(uint32_t shard) {
    if (shard == 0 || dirty_[shard]) return;
    dirty_[shard] = 1;
    dirty_list_.push_back(shard);
  }
  void RefreshDirty() {
    for (uint32_t s : dirty_list_) {
      dirty_[s] = 0;
      tree_.Set(s, loops_[s]->queue.NextKey());
    }
    dirty_list_.clear();
  }

  // --- per-pair lookahead --------------------------------------------------
  SimTime& Dist(size_t i, size_t j) { return dist_[i * dist_n_ + j]; }
  SimTime DistAt(size_t i, size_t j) const {
    return (i < dist_n_ && j < dist_n_) ? dist_[i * dist_n_ + j] : kNoDeadline;
  }
  void GrowDist(size_t n);
  SimDuration LookaheadShard(uint32_t src_shard, uint32_t dst_shard) const {
    return DistAt(src_shard, dst_shard);
  }

  SimTime now_ = 0;
  uint64_t seed_;
  int parallel_workers_;

  std::vector<SimTime> dist_;   // least path latency, dist_n_ x dist_n_ shards
  std::vector<SimTime> echo_;   // per shard: least round trip to any peer
  size_t dist_n_ = 0;

  std::vector<std::unique_ptr<NodeLoop>> loops_;  // [0] is the global loop
  std::unordered_map<uint16_t, uint32_t> loop_index_;  // node id -> shard

  MinTree tree_;                     // next-event keys of node loops (1..n)
  std::vector<uint8_t> dirty_;       // per-shard "head may have moved" flag
  std::vector<uint32_t> dirty_list_; // shards with dirty_ set

  Stats stats_;
  TraceLog trace_;

  // --- engine metrics (coordinator-only; published on demand) --------------
  uint64_t metric_rounds_ = 0;       // rounds run
  uint64_t metric_ready_loops_ = 0;  // sum of ready-set sizes over rounds
  uint64_t metric_posts_ = 0;        // cross-loop posts buffered via outboxes
  Histogram horizon_width_;          // granted horizon minus next-event time
  uint64_t published_rounds_ = 0;    // deltas already pushed into stats_
  uint64_t published_ready_loops_ = 0;
  uint64_t published_posts_ = 0;
  bool horizon_published_ = false;

  // --- worker pool (parallel_workers > 1; threads start lazily) -------------
  std::vector<std::thread> threads_;
  std::mutex pool_mu_;  // guards round_seq_/next_/pending_, in_round_, stop_
  std::condition_variable pool_cv_;   // round published / stop
  std::condition_variable done_cv_;   // round_pending_ reached zero
  // ready_ is rebuilt by the coordinator between rounds; workers only read
  // it inside ClaimLoop with in_round_ set, checked under pool_mu_.
  std::vector<NodeLoop*> ready_;      // loops of the current round
  size_t round_next_ = 0;             // next unclaimed ready_ index
  size_t round_pending_ = 0;
  uint64_t round_seq_ = 0;
  bool stop_ = false;
  bool in_round_ = false;  // written only while workers are quiescent
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_SIMULATION_H_
