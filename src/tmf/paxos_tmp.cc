#include "tmf/paxos_tmp.h"

#include <algorithm>
#include <bit>

#include "audit/audit_trail.h"

namespace encompass::tmf {

constexpr SimDuration kFallbackInterval = Millis(200);  // pacing between rounds
// How long the home batches decided-instance reclamations before flushing
// kTmfPaxosReclaim (fewer messages, higher acceptor-log peak).
constexpr SimDuration kReclaimInterval = Millis(250);

void PaxosTmp::OnPairAttach() {
  TmpProcess::OnPairAttach();
  sim::Stats& stats = this->stats();
  pm_.rounds = stats.RegisterCounter("tmf.paxos_rounds");
  pm_.commit_points = stats.RegisterCounter("tmf.paxos_commit_points");
  pm_.fast_commit_points = stats.RegisterCounter("tmf.paxos_fast_commit_points");
  pm_.adopted_aborts = stats.RegisterCounter("tmf.paxos_adopted_aborts");
  pm_.resolved_commits = stats.RegisterCounter("tmf.paxos_resolved_commits");
  pm_.resolved_aborts = stats.RegisterCounter("tmf.paxos_resolved_aborts");
  pm_.seals = stats.RegisterCounter("tmf.paxos_seals");
  pm_.votes_cast = stats.RegisterCounter("tmf.paxos_votes_cast");
  pm_.fallbacks = stats.RegisterCounter("tmf.paxos_fallbacks");
  pm_.reclaims_sent = stats.RegisterCounter("tmf.paxos_reclaims_sent");
  pm_.bad_vote_acks = stats.RegisterCounter("tmf.paxos_bad_vote_acks");
}

void PaxosTmp::OnRequest(const net::Message& msg) {
  if (msg.tag != kTmfPaxosVoteAck) {
    TmpProcess::OnRequest(msg);
    return;
  }
  // One-way vote ack: no reply path, a backup member drops it (the acks
  // re-arrive after a takeover re-runs phase 1).
  if (IsPrimary()) HandleVoteAck(msg);
}

PaxosTmp::TxnEntry* PaxosTmp::EndingDistributed(const Transid& t) {
  TxnEntry* txn = FindTxn(t);
  return txn != nullptr && txn->state == TxnState::kEnding && Distributed(*txn)
             ? txn
             : nullptr;
}

void PaxosTmp::DropTxn(const Transid& transid) {
  rounds_.erase(transid);
  TmpProcess::DropTxn(transid);
}

// ---------------------------------------------------------------------------
// Phase 1: votes instead of a prepared promise to the home
// ---------------------------------------------------------------------------

Bytes PaxosTmp::Phase1Request(const TxnEntry& txn) const {
  if (!Distributed(txn)) return TmpProcess::Phase1Request(txn);
  // The home's attempt-0 ballot rides the existing phase-1 fan-out (Gray &
  // Lamport's "free" prepare phase).
  return EncodePhase1Paxos(txn.transid, MakePaxosBallot(0, node()->id()));
}

void PaxosTmp::OnAuditForced(const Transid& transid) {
  // The home votes without waiting for its children's phase-1 replies:
  // their votes travel concurrently, which is the saved WAN round trip.
  if (TxnEntry* txn = EndingDistributed(transid)) {
    CastVote(txn, MakePaxosBallot(0, node()->id()));
  }
}

void PaxosTmp::OnPrepared(TxnEntry* txn, const net::Message& phase1) {
  // The affirmative vote also goes straight to the acceptors, at the ballot
  // the home's phase-1 request carried (none: no vote).
  uint32_t ballot = 0;
  if (DecodePhase1Ballot(Slice(phase1.payload), &ballot) && ballot != 0) {
    CastVote(txn, ballot);
  }
}

void PaxosTmp::CastVote(TxnEntry* txn, uint32_t ballot) {
  // Home: ballot (0, home), the implicit promise that rides phase 1.
  // Child: the home's piggybacked ballot. Every voter instance thus lives
  // at one known ballot, and any recovery proposal at attempt >= 1
  // outranks them all.
  const Transid t = txn->transid;
  std::vector<net::NodeId> participants;
  if (txn->is_home) {
    participants.assign(txn->children.begin(), txn->children.end());
  }
  Bytes vote = EncodePaxosAccept(t, ballot, Disposition::kCommitted,
                                 node()->id(), participants);
  const auto& eps = config().acceptor_endpoints;
  static const std::set<net::NodeId> kNone;
  const std::set<net::NodeId>& prefer = txn->is_home ? txn->children : kNone;
  // Stamped with the transid so per-transaction message accounting sees the
  // (cross-node) votes even when causal tracing is off.
  set_current_transid(t.Pack());
  for (size_t i : VoteTargetIndices(node()->id(), t.home_node, prefer)) {
    // A child's home-node copies travel as its affirmative phase-1 reply:
    // the home re-materialises the vote locally (OnChildPrepared), so a
    // separate cross-node vote message would just be a duplicate.
    if (!txn->is_home && eps[i].first == t.home_node) continue;
    stats().Incr(pm_.votes_cast);
    Send(net::Address(eps[i].first, eps[i].second), kTmfPaxosVote, vote);
  }
  set_current_transid(0);
}

void PaxosTmp::OnChildPrepared(const Transid& transid, net::NodeId child) {
  if (EndingDistributed(transid) == nullptr) return;
  // A child's affirmative phase-1 reply IS its prepared-vote: bit-for-bit
  // what CastVote would have sent here. The home writes it into its
  // co-located logs under the acceptors' own accept rule, crediting the
  // tally after the forced-write latency — a direct mutation of durable
  // NodeStorage, with no message hop and no intermediate event.
  const uint32_t ballot = MakePaxosBallot(0, node()->id());
  uint32_t bits = 0;
  for (size_t i : VoteTargetIndices(child, transid.home_node)) {
    for (const auto& ca : config().colocated_acceptors) {
      if (ca.index != i) continue;
      switch (ca.log->Accept(transid, child, ballot, Disposition::kCommitted,
                             {}, sim()->Now())) {
        case AcceptOutcome::kAccepted:
          stats().Incr(pm_.votes_cast);
          bits |= (1u << ca.index);
          break;
        case AcceptOutcome::kDuplicate:
          bits |= (1u << ca.index);  // replay: the first force stands
          break;
        case AcceptOutcome::kSealed:
        case AcceptOutcome::kRejected:  // usurped by a recovery proposer
          break;
      }
    }
  }
  if (bits == 0) return;
  SetTimer(audit::kDiscForceLatency, [this, transid, child, bits]() {
    TxnEntry* t = FindTxn(transid);
    if (t == nullptr || t->state != TxnState::kEnding || !t->is_home) return;
    rounds_[transid].vote_acks[child] |= bits;
    CheckVoteTally(t);
  });
}

std::vector<size_t> PaxosTmp::VoteTargetIndices(
    net::NodeId voter, net::NodeId home,
    const std::set<net::NodeId>& prefer) const {
  const auto& eps = config().acceptor_endpoints;
  const size_t quorum = eps.size() / 2 + 1;  // F+1 of 2F+1
  // Any F+1 subset works for safety (it intersects every resolver's F+1
  // prepare quorum), so pick the cheapest: co-located pairs cost no network
  // message at all, a pair on the home node acks home-locally, and a pair
  // on a participant node gets reclaimed for free when phase 2 lands there.
  auto rank = [&eps, voter, home, &prefer](size_t i) {
    if (eps[i].first == voter) return 0;
    if (eps[i].first == home) return 1;
    if (prefer.count(eps[i].first) != 0) return 2;
    return 3;
  };
  std::vector<size_t> idx(eps.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&rank](size_t a, size_t b) { return rank(a) < rank(b); });
  if (idx.size() > quorum) idx.resize(quorum);
  return idx;
}

// ---------------------------------------------------------------------------
// The commit point: the home's tally of forced-vote acks
// ---------------------------------------------------------------------------

void PaxosTmp::HandleVoteAck(const net::Message& msg) {
  PaxosVoteAck ack;
  if (!DecodePaxosVoteAck(Slice(msg.payload), &ack)) return;
  if (ack.acceptor_index >= config().acceptor_endpoints.size()) {
    // No such acceptor: its bit would count a phantom toward F+1 (and a
    // shift by 32 or more is undefined). Counted and dropped.
    stats().Incr(pm_.bad_vote_acks);
    return;
  }
  TxnEntry* txn = EndingDistributed(ack.transid);
  if (txn == nullptr) return;  // decided meanwhile: the ack is moot
  Round& round = rounds_[ack.transid];
  for (uint16_t voter : ack.voters) {
    round.vote_acks[voter] |= (1u << ack.acceptor_index);
  }
  CheckVoteTally(txn);
}

void PaxosTmp::CheckVoteTally(TxnEntry* txn) {
  const auto& acks = rounds_[txn->transid].vote_acks;
  const int needed =
      static_cast<int>(config().acceptor_endpoints.size() / 2 + 1);
  auto prepared = [&acks, needed](uint16_t voter) {
    auto it = acks.find(voter);
    return it != acks.end() && std::popcount(it->second) >= needed;
  };
  if (!prepared(node()->id())) return;
  for (net::NodeId child : txn->children) {
    if (!prepared(child)) return;
  }
  // Every voter's Prepared is forced at F+1 acceptors: any future
  // resolver's quorum must reveal each of them, so the outcome is fixed —
  // this tally is the commit point, one WAN delay after END arrived.
  stats().Incr(pm_.commit_points);
  stats().Incr(pm_.fast_commit_points);
  CommitPointReached(txn->transid);
}

void PaxosTmp::CompleteCommit(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  if (!Distributed(*txn)) {
    TmpProcess::CompleteCommit(transid);
    return;
  }
  // The tally (HandleVoteAck) usually reaches the commit point before
  // phase 1 even finishes. Still ending here means some voter's F+1 acks
  // are missing: arm the fallback rounds.
  Round& round = rounds_[transid];
  if (round.fallback_timer != 0) return;
  round.fallback_timer =
      SetTimer(kFallbackInterval, [this, transid]() {
        TxnEntry* txn = FindTxn(transid);
        if (txn == nullptr) return;
        rounds_[transid].fallback_timer = 0;
        if (txn->state == TxnState::kEnding) StartFallback(transid);
      });
}

void PaxosTmp::OnPhase1Failed(TxnEntry* txn, const char* reason) {
  // The home's vote may already be chosen: settle, do not abort.
  if (Distributed(*txn)) StartFallback(txn->transid);
  else TmpProcess::OnPhase1Failed(txn, reason);
}

void PaxosTmp::StartFallback(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding ||
      rounds_[transid].in_flight) {
    return;
  }
  stats().Incr(pm_.fallbacks);
  // Some voter's F+1 acks never materialised (an acceptor died, a vote was
  // lost, a child answered phase 1 negatively): adopt what the round fixes.
  RunRound(transid, [this, transid](TxnEntry*, Round* round,
                                    Disposition chosen) {
    if (chosen == Disposition::kCommitted) {
      stats().Incr(pm_.commit_points);
      CommitPointReached(transid);
    } else if (chosen == Disposition::kAborted) {
      stats().Incr(pm_.adopted_aborts);
      StartAbort(transid, "paxos: abort fixed by fallback");
    } else {
      // Exponential backoff: during an outage no amount of re-proposing
      // settles the instances, and each retry costs prepare/accept
      // fan-outs — so double the pause per failed attempt (capped at 2s,
      // roughly the shortest heal window worth waiting for).
      ++round->attempt;
      const uint32_t shift = std::min(round->attempt, 4u);
      SimDuration delay = kFallbackInterval << shift;
      if (delay > Seconds(2)) delay = Seconds(2);
      SetTimer(delay, [this, transid]() { StartFallback(transid); });
    }
  });
}

void PaxosTmp::RunRound(
    const Transid& transid,
    std::function<void(TxnEntry*, Round*, Disposition)> settle) {
  Round& round = rounds_[transid];
  if (round.in_flight) return;
  round.in_flight = true;
  // Never re-use the voters' attempt-0 ballot: a usurping ballot must
  // outrank it so the quorum intersection exposes any accepted value.
  if (round.attempt == 0) round.attempt = 1;
  stats().Incr(pm_.rounds);
  ResolvePaxosOutcome(
      this, config().acceptor_endpoints, transid, round.attempt,
      [this, transid, settle = std::move(settle)](Disposition chosen) {
        TxnEntry* txn = FindTxn(transid);
        if (txn == nullptr) return;
        Round& round = rounds_[transid];
        round.in_flight = false;
        if (txn->state == TxnState::kEnding) settle(txn, &round, chosen);
      });
}

// ---------------------------------------------------------------------------
// In-doubt resolution against the acceptors
// ---------------------------------------------------------------------------

void PaxosTmp::ResolveIndoubt(const Transid& t, TxnEntry* txn) {
  // The acceptor log, not the home, owns the commit record, so a probe of
  // the home is a wasted call. Grace gate: an entry in-doubt for less than
  // one resolve interval is most likely a healthy commit mid-flight that a
  // usurping ballot would needlessly abort.
  if (txn->indoubt_since == 0) {
    // A takeover rebuilt this entry already ending: restart the lost clock.
    txn->indoubt_since = sim()->Now();
    return;
  }
  if (sim()->Now() - txn->indoubt_since < config().indoubt_resolve_interval) {
    return;
  }
  RunRound(t, [this, t](TxnEntry* txn, Round* round, Disposition chosen) {
    if (chosen == Disposition::kCommitted) {
      stats().Incr(pm_.resolved_commits);
      ApplyRemoteCommit(t, txn);
    } else if (chosen == Disposition::kAborted) {
      stats().Incr(pm_.resolved_aborts);
      StartAbort(t, "in-doubt resolved by acceptor majority");
    } else {
      ++round->attempt;  // retried on the next resolve tick
    }
  });
}

Disposition PaxosTmp::DecideAtHome(const Transid& t, TxnEntry* txn) {
  if (txn == nullptr) {
    // The absent MAT record proves nothing: this TMP may have been
    // respawned after a majority accepted commit. Seal at the acceptors
    // first; until the MAT holds the outcome the honest answer is unknown.
    SealDecision(t);
    return Disposition::kUnknown;
  }
  if (txn->state == TxnState::kEnding && Distributed(*txn)) {
    // An accept round may already hold a majority: the in-flight round
    // (or the recoverer's own acceptor query) settles it, not an abort.
    return Disposition::kUnknown;
  }
  return TmpProcess::DecideAtHome(t, txn);
}

void PaxosTmp::SealDecision(const Transid& t) {
  Seal& seal = seals_[t];
  if (seal.in_flight) return;
  seal.in_flight = true;
  stats().Incr(pm_.rounds);
  ResolvePaxosOutcome(
      this, config().acceptor_endpoints, t, seal.attempt++,
      [this, t](Disposition chosen) {
        if (chosen == Disposition::kUnknown) {
          seals_[t].in_flight = false;  // resealed on the next query
          return;
        }
        seals_.erase(t);
        if (FindTxn(t) != nullptr) return;  // tracked meanwhile: live pipeline
        if (LookupDisposition(t) != Disposition::kUnknown) return;  // recorded
        stats().Incr(pm_.seals);
        RecordCompletion(t, chosen);
      });
}

// ---------------------------------------------------------------------------
// Acceptor-log GC
// ---------------------------------------------------------------------------

void PaxosTmp::OnDecided(TxnEntry* txn, Disposition d) {
  const Transid& t = txn->transid;
  if (!txn->is_home) {
    // The disposition just landed on this participant (or it aborts before
    // voting, so it never will): seal every co-located pair's instances in
    // place — no message, no event. Late vote replays bounce off the seal,
    // and the home's flush skips participant nodes (ReclaimMaskFor).
    for (const auto& ca : config().colocated_acceptors) {
      ca.log->Seal(t.Pack(), d);
    }
    return;
  }
  // An ending distributed home transaction may have voter instances at the
  // acceptors: reclaim them once its phase-2 / abort safe deliveries drain
  // and no resolver can need them. Aborts out of kActive never voted.
  if (txn->state == TxnState::kEnding && Distributed(*txn)) {
    reclaim_waiting_[t.Pack()] = ReclaimEntry{d, ReclaimMaskFor(*txn)};
  }
}

uint32_t PaxosTmp::ReclaimMaskFor(const TxnEntry& txn) const {
  const auto& eps = config().acceptor_endpoints;
  const size_t n = eps.size();
  const uint32_t all = n >= 32 ? ~0u : (1u << n) - 1;
  const net::NodeId home = txn.transid.home_node;
  uint32_t mask;
  auto round = rounds_.find(txn.transid);
  if (round != rounds_.end() && round->second.attempt > 0) {
    // A fallback/resolve round fans its accept phase out to the whole
    // group, so instances may exist anywhere.
    mask = all;
  } else {
    mask = 0;
    for (size_t i : VoteTargetIndices(home, home, txn.children)) {
      mask |= (1u << i);
    }
    for (net::NodeId child : txn.children) {
      for (size_t i : VoteTargetIndices(child, home)) mask |= (1u << i);
    }
  }
  // Pairs on participant nodes seal themselves the instant phase 2 (or the
  // abort) lands there, so the home only flushes to its own pairs (free)
  // and, after a fallback, to bystander nodes.
  for (size_t k = 0; k < n; ++k) {
    if (txn.children.count(eps[k].first) != 0) mask &= ~(1u << k);
  }
  return mask;
}

void PaxosTmp::OnSafeDelivered(const Transid& transid) {
  auto it = reclaim_waiting_.find(transid.Pack());
  if (it == reclaim_waiting_.end() || SafeDeliveryPending(transid)) return;
  reclaim_pending_.emplace_back(it->first, it->second);
  reclaim_waiting_.erase(it);
  if (reclaim_flush_armed_) return;
  reclaim_flush_armed_ = true;
  SetTimer(kReclaimInterval, [this]() { FlushReclaims(); });
}

void PaxosTmp::FlushReclaims() {
  reclaim_flush_armed_ = false;
  if (reclaim_pending_.empty() || !IsPrimary()) return;
  // Targeted one-way flush: each acceptor gets only the transactions whose
  // ReclaimMaskFor() bit names it, outside any transaction's trace (a batch
  // spans several). One that misses its flush — down or partitioned —
  // reclaims through its own orphan sweep instead.
  const auto& eps = config().acceptor_endpoints;
  std::vector<std::vector<std::pair<uint64_t, Disposition>>> batches(
      eps.size());
  for (const auto& [packed, entry] : reclaim_pending_) {
    for (size_t k = 0; k < eps.size(); ++k) {
      if (entry.endpoint_mask & (1u << k)) {
        batches[k].emplace_back(packed, entry.disposition);
      }
    }
  }
  reclaim_pending_.clear();
  WithTraceContext(sim::TraceContext{}, [this, &eps, &batches]() {
    for (size_t k = 0; k < eps.size(); ++k) {
      if (batches[k].empty()) continue;
      stats().Incr(pm_.reclaims_sent);
      Send(net::Address(eps[k].first, eps[k].second), kTmfPaxosReclaim,
           EncodePaxosReclaim(batches[k]));
    }
  });
}

}  // namespace encompass::tmf
