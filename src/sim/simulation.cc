#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

namespace encompass::sim {

namespace {

// Seed derivation for per-node PRNG streams: golden-ratio mixing keeps the
// streams of adjacent node ids far apart. The formula is load-bearing: it is
// baked into the golden trace files.
uint64_t NodeSeed(uint64_t seed, uint16_t node) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(node) + 1));
}

SimTime SatAdd(SimTime a, SimTime b) {
  return (a >= kNoDeadline - b) ? kNoDeadline : a + b;
}

}  // namespace

Simulation::Simulation(uint64_t seed, int parallel_workers)
    : seed_(seed), parallel_workers_(std::max(parallel_workers, 1)) {
  loops_.push_back(std::make_unique<NodeLoop>(0, 0, NodeSeed(seed, 0)));
  loop_index_.emplace(0, 0);
  tree_.Resize(1);
  dirty_.resize(1, 0);
}

Simulation::~Simulation() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

NodeLoop* Simulation::EnsureLoop(uint16_t node) {
  auto it = loop_index_.find(node);
  if (it != loop_index_.end()) return loops_[it->second].get();
  // Loop creation mutates shared tables; it happens during topology setup
  // and serial phases, never from a node's event.
  assert(MayTouch(0));
  const auto shard = static_cast<uint32_t>(loops_.size());
  loops_.push_back(std::make_unique<NodeLoop>(node, shard, NodeSeed(seed_, node)));
  loop_index_.emplace(node, shard);
  tree_.Resize(loops_.size());  // the new leaf starts at +inf: queue is empty
  dirty_.resize(loops_.size(), 0);
  stats_.EnsureShards(loops_.size());
  trace_.EnsureShards(loops_.size());
  trace_.EnsureNodeSpans(node);
  return loops_.back().get();
}

void Simulation::GrowDist(size_t n) {
  if (n <= dist_n_) return;
  std::vector<SimTime> nd(n * n, kNoDeadline);
  for (size_t i = 0; i < n; ++i) nd[i * n + i] = 0;
  for (size_t i = 0; i < dist_n_; ++i) {
    for (size_t j = 0; j < dist_n_; ++j) {
      nd[i * n + j] = dist_[i * dist_n_ + j];
    }
  }
  dist_ = std::move(nd);
  dist_n_ = n;
}

void Simulation::NoteLinkLatency(uint16_t a, uint16_t b, SimDuration latency) {
  if (latency <= 0 || a == b) return;
  const uint32_t sa = EnsureLoop(a)->shard;
  const uint32_t sb = EnsureLoop(b)->shard;
  GrowDist(loops_.size());
  // Relax the least-path table with the new edge. Any path improved by the
  // edge uses it exactly once (latencies are positive), so one pass over all
  // pairs is complete. The table is a static infimum over declared links:
  // link-down flaps and longer actual routes only increase real latencies,
  // never drop below it.
  for (size_t i = 0; i < dist_n_; ++i) {
    for (size_t j = 0; j < dist_n_; ++j) {
      if (i == j) continue;
      const SimTime via1 =
          SatAdd(SatAdd(DistAt(i, sa), latency), DistAt(sb, j));
      const SimTime via2 =
          SatAdd(SatAdd(DistAt(i, sb), latency), DistAt(sa, j));
      const SimTime best = via1 < via2 ? via1 : via2;
      if (best < Dist(i, j)) Dist(i, j) = best;
    }
  }
  // Rebuild the per-shard echo floor: the least round trip from i out to any
  // peer and back. A loop's round horizon must not exceed its next event by
  // more than this — see the self-echo bound in RunRounds.
  echo_.assign(dist_n_, kNoDeadline);
  for (size_t i = 0; i < dist_n_; ++i) {
    for (size_t j = 0; j < dist_n_; ++j) {
      if (i == j) continue;
      const SimTime rt = SatAdd(DistAt(i, j), DistAt(j, i));
      if (rt < echo_[i]) echo_[i] = rt;
    }
  }
}

SimDuration Simulation::LookaheadBetween(uint16_t src, uint16_t dst) const {
  const auto is = loop_index_.find(src);
  const auto id = loop_index_.find(dst);
  if (is == loop_index_.end() || id == loop_index_.end()) return kNoDeadline;
  return LookaheadShard(is->second, id->second);
}

uint16_t Simulation::CtxNode() const {
  const internal::ExecContext* ec = internal::Exec();
  return (ec != nullptr && ec->sim == this) ? ec->node : 0;
}

bool Simulation::MayTouch(uint32_t shard) const {
  const internal::ExecContext* ec = internal::Exec();
  return ec == nullptr || ec->sim != this || ec->shard == 0 ||
         ec->shard == shard;
}

EventId Simulation::ScheduleOn(uint16_t node, SimTime when, EventFn fn) {
  NodeLoop* loop = EnsureLoop(node);
  // A node's event may schedule only onto its own loop (another loop may be
  // running on another thread); cross-node work must go through PostToNode.
  // The dirty flag is skipped in a pool round: the coordinator refreshes
  // every ready loop after the round.
  assert(MayTouch(loop->shard));
  const EventId seq = loop->queue.Schedule(when, std::move(fn));
  if (!in_round_) MarkDirty(loop->shard);
  return (static_cast<EventId>(loop->shard) << kSeqBits) | seq;
}

EventId Simulation::After(SimDuration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleOn(CtxNode(), Now() + delay, std::move(fn));
}

EventId Simulation::AfterOn(uint16_t node, SimDuration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleOn(node, Now() + delay, std::move(fn));
}

EventId Simulation::AtOn(uint16_t node, SimTime when, EventFn fn) {
  const SimTime now = Now();
  return ScheduleOn(node, when < now ? now : when, std::move(fn));
}

void Simulation::PostToNode(uint16_t dst, SimDuration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  const SimTime when = Now() + delay;
  const internal::ExecContext* ec = internal::Exec();
  NodeLoop* src = (ec != nullptr && ec->sim == this) ? loops_[ec->shard].get()
                                                     : loops_[0].get();
  NodeLoop* dl = EnsureLoop(dst);
  // The key carries the sender's stamp: deliveries fire in send order.
  const EventKey key{when, src->node, src->queue.IssueSeq()};
  // A node's post to another loop must land past every horizon that loop
  // can be granted in the same round; checked at every thread count, since
  // an inline round inserts it directly.
  assert(dl == src || src->shard == 0 ||
         delay >= LookaheadShard(src->shard, dl->shard));
  if (dl == src || !in_round_) {
    dl->queue.ScheduleKeyed(key, std::move(fn));
    if (!in_round_) MarkDirty(dl->shard);
    return;
  }
  // The receiver may be running on another thread: buffer the post in the
  // sender's outbox lane for dst (single writer — this worker). It cannot be
  // due within the receiver's current horizon — the horizon is at most
  // (receiver's view of src's round-start time + src→dst lookahead), the
  // post is at least that lookahead after the sender's current (>= round
  // start) event — so draining lanes between rounds loses nothing.
  if (src->outbox.size() < loops_.size()) src->outbox.resize(loops_.size());
  auto& lane = src->outbox[dl->shard];
  if (lane.empty()) src->outbox_dsts.push_back(dl->shard);
  lane.push_back(NodeLoop::Post{key, std::move(fn)});
}

void Simulation::Cancel(EventId id) {
  const auto shard = static_cast<uint32_t>(id >> kSeqBits);
  if (shard >= loops_.size()) return;
  NodeLoop* loop = loops_[shard].get();
  assert(MayTouch(shard));
  loop->queue.Cancel(id & ((EventId{1} << kSeqBits) - 1));
  // A cancelled head can move the loop's next-event time *later*; a stale
  // too-small leaf would leave the round loop unable to find ready work.
  if (!in_round_) MarkDirty(shard);
}

void Simulation::ExecOne(NodeLoop* loop) {
  EventKey key;
  EventFn fn = loop->queue.PopNext(&key);
  loop->now = key.time;
  internal::ExecContext ctx;
  ctx.sim = this;
  ctx.stats = &stats_;
  ctx.trace = &trace_;
  ctx.shard = loop->shard;
  ctx.node = loop->node;
  ctx.key = key;
  internal::ExecContext* prev = internal::Exec();
  internal::SetExec(&ctx);
  fn();
  internal::SetExec(prev);
  ++loop->executed;
}

void Simulation::DrainOutboxes() {
  // Coordinator-only, between rounds; the round barrier (pool_mu_) ordered
  // every worker's lane writes before this read. Insertion order across
  // lanes is irrelevant: heaps pop by the total-order key.
  for (auto& l : loops_) {
    if (l->outbox_dsts.empty()) continue;
    for (uint32_t d : l->outbox_dsts) {
      std::vector<NodeLoop::Post>& lane = l->outbox[d];
      NodeLoop* dl = loops_[d].get();
      for (NodeLoop::Post& p : lane) {
        dl->queue.ScheduleKeyed(p.key, std::move(p.fn));
      }
      metric_posts_ += lane.size();
      lane.clear();
      MarkDirty(d);
    }
    l->outbox_dsts.clear();
  }
}

bool Simulation::Step(SimTime deadline) {
  RefreshDirty();
  const EventKey* k0 = loops_[0]->queue.NextKey();
  const uint32_t w = tree_.MinIndex();
  NodeLoop* best;
  // Keys are globally unique: the lesser of the two heads is the argmin.
  if (k0 != nullptr && (w == MinTree::kNone || *k0 < tree_.KeyAt(w))) {
    best = loops_[0].get();
  } else if (w != MinTree::kNone) {
    best = loops_[w].get();
  } else {
    return false;
  }
  if (best->queue.NextTime() > deadline) return false;
  ExecOne(best);
  MarkDirty(best->shard);
  if (best->now > now_) now_ = best->now;
  return true;
}

size_t Simulation::Run(size_t max_events) {
  if (max_events == SIZE_MAX) {
    const uint64_t before = ExecutedEvents();
    RunRounds(kNoDeadline - 1);
    return static_cast<size_t>(ExecutedEvents() - before);
  }
  size_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

void Simulation::RunUntil(SimTime deadline) {
  RunRounds(deadline);
  if (now_ < deadline) now_ = deadline;
}

void Simulation::RunRounds(SimTime deadline) {
  StartWorkers();
  std::vector<uint32_t> active;  // scratch: shards with pending work
  for (;;) {
    DrainOutboxes();
    RefreshDirty();

    // Serial phase: global-loop events sort before any node's events at the
    // same time, so run them while none of the node loops has earlier work.
    for (;;) {
      const EventKey* k0 = loops_[0]->queue.NextKey();
      if (k0 == nullptr || k0->time > deadline) break;
      if (k0->time > tree_.MinTime()) break;
      ExecOne(loops_[0].get());
      if (loops_[0]->now > now_) now_ = loops_[0]->now;
      RefreshDirty();  // the event may have scheduled onto node loops
    }

    // Round setup: loop i may run strictly below
    //   min(cap, min over other active loops j of E_j + L(j->i),
    //       E_i + echo(i))
    // where cap stops at the next global-loop event or the deadline. The
    // loop holding the globally minimal next event is always ready (all
    // lookaheads are positive and cap exceeds the minimum — the serial
    // phase ran loop 0 past it), so every iteration makes progress.
    //
    // The E_j + L(j->i) terms bound what peers do SPONTANEOUSLY (their own
    // pending events). They do not bound REACTIVE sends: a peer whose next
    // own event is a far-off timer still answers a request that i itself
    // sends mid-round, and that reply lands only one round trip after the
    // send — potentially far below a horizon derived from the peer's idle
    // queue. The E_i + echo(i) term closes that hole: every message chain
    // leaving i returns no sooner than the least round trip out of i
    // (lookaheads form a metric, so multi-hop chains can't beat it), and
    // chains started by another active loop k are already covered by k's
    // E_k + L(k->i) term.
    const SimTime t0 = loops_[0]->queue.NextTime();
    const SimTime cap = std::min(SatAdd(deadline, 1), t0);
    const SimTime min1 = tree_.MinTime();
    if (min1 > deadline) break;  // no node work left within the deadline

    ready_.clear();
    active.clear();
    for (size_t i = 1; i < loops_.size(); ++i) {
      if (tree_.KeyAt(i).time != kNoDeadline) {
        active.push_back(static_cast<uint32_t>(i));
      }
    }
    for (uint32_t i : active) {
      const SimTime e = tree_.KeyAt(i).time;
      SimTime h = cap;
      for (uint32_t j : active) {
        if (j == i) continue;
        const SimTime b = SatAdd(tree_.KeyAt(j).time, LookaheadShard(j, i));
        if (b < h) h = b;
      }
      const SimTime se = SatAdd(e, i < echo_.size() ? echo_[i] : kNoDeadline);
      if (se < h) h = se;
      if (e < h) {
        loops_[i]->horizon = h;
        ready_.push_back(loops_[i].get());
        if (h != kNoDeadline) horizon_width_.Add(h - e);
      }
    }
    assert(!ready_.empty());
    ++metric_rounds_;
    metric_ready_loops_ += ready_.size();

    if (ready_.size() == 1 || threads_.empty()) {
      // Nothing to overlap: run on this thread without the round barrier.
      // Direct queue access elsewhere stays safe — workers are quiescent.
      for (NodeLoop* l : ready_) RunLoopTo(l, l->horizon);
    } else {
      uint64_t round;
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        round = ++round_seq_;
        round_next_ = 0;
        round_pending_ = ready_.size();
        in_round_ = true;
      }
      pool_cv_.notify_all();
      ClaimLoop(round);
      {
        std::unique_lock<std::mutex> lk(pool_mu_);
        done_cv_.wait(lk, [this] { return round_pending_ == 0; });
        // Workers only touch ready_ while in_round_ is set (checked under
        // the same mutex), so clearing it here fences the vector for the
        // next round's rebuild even against stragglers.
        in_round_ = false;
      }
    }
    for (NodeLoop* l : ready_) {
      if (l->now > now_) now_ = l->now;
      MarkDirty(l->shard);  // in-round schedules/cancels skipped the flag
    }
  }
}

void Simulation::RunLoopTo(NodeLoop* loop, SimTime horizon) {
  for (;;) {
    const EventKey* k = loop->queue.NextKey();
    if (k == nullptr || k->time >= horizon) break;
    ExecOne(loop);
  }
}

void Simulation::StartWorkers() {
  if (!threads_.empty() || parallel_workers_ < 2) return;
  const int n = parallel_workers_ - 1;  // the coordinator participates
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

void Simulation::WorkerMain() {
  uint64_t last_seen = 0;
  for (;;) {
    uint64_t round;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [&] { return stop_ || round_seq_ != last_seen; });
      if (stop_) return;
      round = round_seq_;
      last_seen = round;
    }
    ClaimLoop(round);
  }
}

void Simulation::ClaimLoop(uint64_t round) {
  for (;;) {
    NodeLoop* l = nullptr;
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      // The round check precedes any access to ready_: a thread that
      // lagged into a later round must not touch the vector the
      // coordinator rebuilds between rounds (it only does so with
      // in_round_ clear, under this mutex).
      if (!in_round_ || round_seq_ != round) return;
      if (round_next_ >= ready_.size()) return;
      l = ready_[round_next_++];
    }
    RunLoopTo(l, l->horizon);
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (--round_pending_ == 0) done_cv_.notify_all();
  }
}

void Simulation::PublishEngineMetrics() {
  stats_.Incr(stats_.RegisterCounter("sim.rounds"),
              static_cast<int64_t>(metric_rounds_ - published_rounds_));
  stats_.Incr(stats_.RegisterCounter("sim.ready_loops"),
              static_cast<int64_t>(metric_ready_loops_ - published_ready_loops_));
  stats_.Incr(stats_.RegisterCounter("sim.inbox_posts"),
              static_cast<int64_t>(metric_posts_ - published_posts_));
  published_rounds_ = metric_rounds_;
  published_ready_loops_ = metric_ready_loops_;
  published_posts_ = metric_posts_;
  if (!horizon_published_ && horizon_width_.count() > 0) {
    stats_.Merge(stats_.RegisterHistogram("sim.horizon_width"), horizon_width_);
    horizon_published_ = true;
  }
}

bool Simulation::Idle() const {
  for (const auto& l : loops_) {
    if (!l->queue.empty()) return false;
  }
  return true;  // outbox lanes are empty whenever no round is executing
}

size_t Simulation::PendingEvents() const {
  size_t n = 0;
  for (const auto& l : loops_) n += l->queue.size();
  return n;
}

uint64_t Simulation::ExecutedEvents() const {
  uint64_t n = 0;
  for (const auto& l : loops_) n += l->executed;
  return n;
}

}  // namespace encompass::sim
