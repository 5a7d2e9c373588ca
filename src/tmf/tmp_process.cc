#include "tmf/tmp_process.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "audit/audit_process.h"
#include "common/logging.h"
#include "discprocess/disc_protocol.h"
#include "os/cluster.h"

namespace encompass::tmf {

namespace {

// Checkpoint entry types.
constexpr uint8_t kCkptTxnUpsert = 1;
constexpr uint8_t kCkptTxnRemove = 2;
constexpr uint8_t kCkptSafeAdd = 3;
constexpr uint8_t kCkptSafeRemove = 4;
constexpr uint8_t kCkptSeq = 5;

}  // namespace

void TmpProcess::OnPairAttach() {
  sim::Stats& stats = this->stats();
  m_.state_broadcasts = stats.RegisterCounter("tmf.state_broadcasts");
  m_.txns_seen = stats.RegisterCounter("tmf.txns_seen");
  m_.auto_aborts = stats.RegisterCounter("tmf.auto_aborts");
  m_.illegal_transitions = stats.RegisterCounter("tmf.illegal_transitions");
  m_.begins = stats.RegisterCounter("tmf.begins");
  m_.ends = stats.RegisterCounter("tmf.ends");
  m_.voluntary_aborts = stats.RegisterCounter("tmf.voluntary_aborts");
  m_.remote_begins = stats.RegisterCounter("tmf.remote_begins");
  m_.phase1_received = stats.RegisterCounter("tmf.phase1_received");
  m_.phase1_sent = stats.RegisterCounter("tmf.phase1_sent");
  m_.audit_forces = stats.RegisterCounter("tmf.audit_forces");
  m_.commits = stats.RegisterCounter("tmf.commits");
  m_.mat_forces = stats.RegisterCounter("tmf.mat_forces");
  m_.mat_group_commit_size = stats.RegisterHistogram("tmf.mat_group_commit_size");
  m_.phase2_received = stats.RegisterCounter("tmf.phase2_received");
  m_.orphan_phase2 = stats.RegisterCounter("tmf.orphan_phase2");
  m_.orphan_aborts = stats.RegisterCounter("tmf.orphan_aborts");
  m_.aborts_started = stats.RegisterCounter("tmf.aborts_started");
  m_.backouts = stats.RegisterCounter("tmf.backouts");
  m_.forced_dispositions = stats.RegisterCounter("tmf.forced_dispositions");
  m_.unilateral_aborts = stats.RegisterCounter("tmf.unilateral_aborts");
  m_.safe_queued = stats.RegisterCounter("tmf.safe_queued");
  m_.safe_delivered = stats.RegisterCounter("tmf.safe_delivered");
  m_.takeover_resumed_commits = stats.RegisterCounter("tmf.takeover_resumed_commits");
  m_.takeover_resumed_aborts = stats.RegisterCounter("tmf.takeover_resumed_aborts");
  m_.resolves_served = stats.RegisterCounter("tmf.resolves_served");
  m_.resolves_sent = stats.RegisterCounter("tmf.resolves_sent");
  m_.indoubt_resolved_commits = stats.RegisterCounter("tmf.indoubt_resolved_commits");
  m_.indoubt_resolved_aborts = stats.RegisterCounter("tmf.indoubt_resolved_aborts");
  m_.indoubt_blocked_on_home = stats.RegisterCounter("tmf.indoubt_blocked_on_home");
  m_.resolve_malformed_replies = stats.RegisterCounter("tmf.resolve_malformed_replies");
  m_.orphan_lock_commits = stats.RegisterCounter("tmf.orphan_lock_commits");
  m_.orphan_lock_aborts = stats.RegisterCounter("tmf.orphan_lock_aborts");
  m_.paxos_rounds = stats.RegisterCounter("tmf.paxos_rounds");
  m_.paxos_commit_points = stats.RegisterCounter("tmf.paxos_commit_points");
  m_.paxos_adopted_aborts = stats.RegisterCounter("tmf.paxos_adopted_aborts");
  m_.paxos_resolved_commits = stats.RegisterCounter("tmf.paxos_resolved_commits");
  m_.paxos_resolved_aborts = stats.RegisterCounter("tmf.paxos_resolved_aborts");
  m_.paxos_seals = stats.RegisterCounter("tmf.paxos_seals");
  m_.paxos_votes_cast = stats.RegisterCounter("tmf.paxos_votes_cast");
  m_.paxos_fast_commit_points =
      stats.RegisterCounter("tmf.paxos_fast_commit_points");
  m_.paxos_fallbacks = stats.RegisterCounter("tmf.paxos_fallbacks");
  m_.paxos_reclaims_sent = stats.RegisterCounter("tmf.paxos_reclaims_sent");
  m_.indoubt_hold_us = stats.RegisterHistogram("tmf.indoubt_hold_us");
  m_.commit_latency_us = stats.RegisterHistogram("tmf.commit_latency_us");
  for (int from = 0; from < kNumTxnStates; ++from) {
    for (int to = 0; to < kNumTxnStates; ++to) {
      m_.transition[from][to] = stats.RegisterCounter(
          std::string("tmf.transition.") + TxnStateName(static_cast<TxnState>(from)) +
          "->" + TxnStateName(static_cast<TxnState>(to)));
    }
  }
  // Never hand out a transid an earlier incarnation of this node may have
  // used. The durable restart count sets the floor; scanning the surviving
  // MAT for own-home transids additionally covers a fresh respawn that was
  // not accompanied by a restart-count bump (both pair members lost on a
  // live node).
  if (next_seq_ < config_.seq_base) next_seq_ = config_.seq_base;
  if (config_.monitor_trail != nullptr) {
    for (const auto& rec : config_.monitor_trail->records()) {
      if (rec.transid.home_node == node()->id() && rec.transid.seq > next_seq_) {
        next_seq_ = rec.transid.seq;
      }
    }
  }
  ArmIndoubtResolve();
}

std::vector<TxnListEntry> TmpProcess::ListTransactions() const {
  std::vector<TxnListEntry> entries;
  entries.reserve(txns_.size());
  for (const auto& [transid, txn] : txns_) {
    TxnListEntry e;
    e.transid = transid;
    e.state = static_cast<uint8_t>(txn.state);
    e.is_home = txn.is_home;
    e.parent = txn.parent;
    entries.push_back(e);
  }
  return entries;
}

bool TmpProcess::GetTxnState(const Transid& t, TxnState* state) const {
  auto it = txns_.find(t);
  if (it == txns_.end()) return false;
  *state = it->second.state;
  return true;
}

void TmpProcess::OnRequest(const net::Message& msg) {
  if (msg.tag == kTmfPaxosVoteAck) {
    // One-way vote ack: no reply path, a backup member drops it (the acks
    // re-arrive after a takeover re-runs phase 1).
    if (IsPrimary()) HandlePaxosVoteAck(msg);
    return;
  }
  if (!IsPrimary()) {
    Reply(msg, Status::Unavailable("backup tmp"));
    return;
  }
  switch (msg.tag) {
    case kTmfBegin: HandleBegin(msg); break;
    case kTmfEnd: HandleEnd(msg); break;
    case kTmfAbort: HandleAbort(msg); break;
    case kTmfEnsureRemote: HandleEnsureRemote(msg); break;
    case kTmfRemoteBegin: HandleRemoteBegin(msg); break;
    case kTmfPhase1: HandlePhase1(msg); break;
    case kTmfPhase2: HandlePhase2(msg); break;
    case kTmfAbortTxn: HandleAbortTxn(msg); break;
    case kTmfStatus: HandleStatus(msg); break;
    case kTmfForceDisposition: HandleForceDisposition(msg); break;
    case kTmfResolveTxn: HandleResolveTxn(msg); break;
    case kTmfListTxns:
      Reply(msg, Status::Ok(), EncodeTxnList(ListTransactions()));
      break;
    default:
      Reply(msg, Status::InvalidArgument("unknown tmf tag"));
  }
}

// ---------------------------------------------------------------------------
// Transaction table and state machine
// ---------------------------------------------------------------------------

TmpProcess::TxnEntry* TmpProcess::FindTxn(const Transid& t) {
  auto it = txns_.find(t);
  return it == txns_.end() ? nullptr : &it->second;
}

TmpProcess::TxnEntry* TmpProcess::CreateTxn(const Transid& t, bool is_home,
                                            net::NodeId parent) {
  TxnEntry entry;
  entry.transid = t;
  entry.state = TxnState::kActive;
  entry.is_home = is_home;
  entry.parent = parent;
  auto [it, inserted] = txns_.emplace(t, std::move(entry));
  (void)inserted;
  // BEGIN (or remote begin) broadcasts the transid in "active" state to all
  // processors of this node.
  stats().Incr(m_.state_broadcasts, node()->AliveCpuCount());
  stats().Incr(m_.txns_seen);
  CheckpointTxn(it->second, /*removed=*/false);
  ArmAutoAbort(t);
  return &it->second;
}

void TmpProcess::ArmAutoAbort(const Transid& t) {
  if (config_.auto_abort_timeout <= 0) return;
  SetTimer(config_.auto_abort_timeout, [this, t]() {
    TxnEntry* txn = FindTxn(t);
    if (txn == nullptr) return;
    // Still "active" after the whole timeout: the requester is gone (e.g.
    // its CPU failed and the abort request was lost in the takeover
    // window). Abort so the locks release. In-doubt transactions (ending,
    // non-home) are never touched — they wait for the home's disposition.
    if (txn->state == TxnState::kActive) {
      stats().Incr(m_.auto_aborts);
      StartAbort(t, "transaction abandoned (auto-abort timeout)");
    } else if (txn->state == TxnState::kEnding && txn->is_home) {
      // A home transaction stuck in ending means the phase-1 continuation
      // was lost (e.g. TMP takeover races); re-arm and let takeover logic
      // resolve it. Re-check later.
      ArmAutoAbort(t);
    }
  });
}

void TmpProcess::SetState(TxnEntry* txn, TxnState to) {
  if (txn->state == to) return;
  if (!LegalTransition(txn->state, to)) {
    // Counted rather than fatal: benches assert this stays zero.
    stats().Incr(m_.illegal_transitions);
    LOG_ERROR << DebugName() << " illegal transition " << TxnStateName(txn->state)
              << " -> " << TxnStateName(to) << " for " << txn->transid.ToString();
    return;
  }
  stats().Incr(m_.transition[static_cast<int>(txn->state)][static_cast<int>(to)]);
  Trace(sim::TraceEventKind::kTxnState, txn->transid.Pack(),
        static_cast<uint32_t>(txn->state), static_cast<uint32_t>(to));
  const TxnState from = txn->state;
  txn->state = to;
  // Blocked-lock accounting: how long a non-home participant held its locks
  // in-doubt (ending). The bench compares this between 2PC and Paxos Commit.
  // The timestamp is kept unconditionally — ResolveIndoubts uses it to
  // grace-gate acceptor escalation — but the histogram stays knob-gated so
  // default deployments keep byte-identical stats snapshots.
  if (!txn->is_home) {
    if (to == TxnState::kEnding && txn->indoubt_since == 0) {
      txn->indoubt_since = sim()->Now();
    } else if (from == TxnState::kEnding && txn->indoubt_since != 0) {
      if (config_.track_indoubt_hold) {
        stats().Record(m_.indoubt_hold_us,
                       static_cast<int64_t>(sim()->Now() - txn->indoubt_since));
      }
      txn->indoubt_since = 0;
    }
  }
  // Commit latency at the home TMP: END received (kEnding) to commit point
  // (kEnded). Paxos waits for its vote tally here; 2PC its MAT force.
  // A kEnding exit to any other state (abort) clears without recording.
  if (config_.track_commit_latency && txn->is_home) {
    if (to == TxnState::kEnding && txn->indoubt_since == 0) {
      txn->indoubt_since = sim()->Now();
    } else if (from == TxnState::kEnding && txn->indoubt_since != 0) {
      if (to == TxnState::kEnded) {
        stats().Record(m_.commit_latency_us,
                       static_cast<int64_t>(sim()->Now() - txn->indoubt_since));
      }
      txn->indoubt_since = 0;
    }
  }
  // State changes are broadcast to every processor within the node,
  // regardless of participation (cheap and reliable over the IPC bus).
  stats().Incr(m_.state_broadcasts, node()->AliveCpuCount());
  CheckpointTxn(*txn, /*removed=*/false);
}

void TmpProcess::DropTxn(const Transid& transid) {
  auto it = txns_.find(transid);
  if (it == txns_.end()) return;
  CheckpointTxn(it->second, /*removed=*/true);
  txns_.erase(it);
}

void TmpProcess::NotifyLocalDiscs(const Transid& t, uint8_t disc_state) {
  discprocess::TxnStateChange change;
  change.transid = t;
  change.state = static_cast<discprocess::DiscTxnState>(disc_state);
  for (const auto& name : config_.disc_processes) {
    // Reliable delivery: a one-way message sent in a takeover window (pair
    // name momentarily unbound) would be lost, leaving the transaction's
    // locks held forever. The retried call re-resolves the name and reaches
    // the new primary.
    os::CallOptions opt;
    opt.timeout = config_.disc_notify_timeout;
    opt.retries = config_.disc_notify_retries;
    Call(net::Address(node()->id(), name), discprocess::kDiscTxnStateChange,
         change.Encode(), [](const Status&, const net::Message&) {}, opt);
  }
}

Disposition TmpProcess::LookupDisposition(const Transid& t) const {
  if (config_.monitor_trail != nullptr) {
    int r = config_.monitor_trail->Lookup(t);
    if (r == 1) return Disposition::kCommitted;
    if (r == 0) return Disposition::kAborted;
  }
  return Disposition::kUnknown;
}

// ---------------------------------------------------------------------------
// Client verbs
// ---------------------------------------------------------------------------

void TmpProcess::HandleBegin(const net::Message& msg) {
  Transid t;
  t.home_node = node()->id();
  os::Process* caller = node()->Find(msg.src.pid);
  t.cpu = static_cast<uint8_t>(
      (msg.src.node == node()->id() && caller != nullptr) ? caller->cpu() : cpu());
  t.seq = ++next_seq_;
  // Mirror the sequence counter so a takeover never reuses a transid.
  Bytes ckpt;
  PutFixed8(&ckpt, kCkptSeq);
  PutFixed64(&ckpt, next_seq_);
  SendCheckpoint(std::move(ckpt));

  CreateTxn(t, /*is_home=*/true, /*parent=*/0);
  stats().Incr(m_.begins);
  Reply(msg, Status::Ok(), EncodeTransidPayload(t));
}

void TmpProcess::HandleEnd(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  TxnEntry* txn = FindTxn(*t);
  if (txn == nullptr) {
    Disposition d = LookupDisposition(*t);
    if (d == Disposition::kCommitted) Reply(msg, Status::Ok());
    else if (d == Disposition::kAborted) Reply(msg, Status::Aborted());
    else Reply(msg, Status::NotFound("unknown transaction"));
    return;
  }
  if (txn->state == TxnState::kAborting || txn->state == TxnState::kAborted) {
    // END-TRANSACTION rejected: the system aborted the transaction.
    Reply(msg, Status::Aborted("transaction aborted by system"));
    return;
  }
  txn->client = msg.src;
  txn->client_req = msg.request_id;
  txn->client_tag = msg.tag;
  CheckpointTxn(*txn, false);
  if (txn->state == TxnState::kEnding) return;  // duplicate END: in progress

  stats().Incr(m_.ends);
  SetState(txn, TxnState::kEnding);
  Transid transid = *t;
  RunPhase1(txn, [this, transid](bool ok) {
    TxnEntry* txn = FindTxn(transid);
    if (txn == nullptr) return;
    if (ok && txn->state == TxnState::kEnding) {
      CompleteCommit(transid);
    } else if (txn->state == TxnState::kEnding) {
      if (PaxosEnabledFor(*txn)) {
        // The home's vote may already sit forced at F+1 acceptors: a
        // unilateral abort could contradict a chosen Prepared. Settle the
        // voter instances at a usurping ballot instead.
        StartPaxosFallback(transid);
      } else {
        StartAbort(transid, "phase 1 failed");
      }
    }
  });
}

void TmpProcess::HandleAbort(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  TxnEntry* txn = FindTxn(*t);
  if (txn == nullptr) {
    Reply(msg, LookupDisposition(*t) == Disposition::kAborted
                   ? Status::Ok()
                   : Status::NotFound("unknown transaction"));
    return;
  }
  txn->client = msg.src;
  txn->client_req = msg.request_id;
  txn->client_tag = msg.tag;
  CheckpointTxn(*txn, false);
  stats().Incr(m_.voluntary_aborts);
  StartAbort(*t, "ABORT-TRANSACTION");
}

void TmpProcess::HandleEnsureRemote(const net::Message& msg) {
  Transid t;
  net::NodeId dest;
  if (!DecodeEnsureRemote(Slice(msg.payload), &t, &dest)) {
    Reply(msg, Status::InvalidArgument("bad ensure-remote payload"));
    return;
  }
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr || txn->state == TxnState::kAborting ||
      txn->state == TxnState::kAborted) {
    Reply(msg, Status::Aborted("transaction not active"));
    return;
  }
  if (dest == node()->id() || txn->children.count(dest)) {
    Reply(msg, Status::Ok());
    return;
  }
  // "Remote transaction begin" is a critical-response message: it must be
  // delivered and acknowledged before any transid transmission to `dest`.
  stats().Incr(m_.remote_begins);
  net::Message request = msg;
  os::CallOptions opt;
  opt.timeout = config_.phase1_timeout;
  Call(Tmp(dest), kTmfRemoteBegin, EncodeTransidPayload(t),
       [this, request, t, dest](const Status& s, const net::Message&) {
         TxnEntry* txn = FindTxn(t);
         if (!s.ok() || txn == nullptr) {
           Reply(request, s.ok() ? Status::Aborted() : s);
           return;
         }
         txn->children.insert(dest);
         CheckpointTxn(*txn, false);
         Reply(request, Status::Ok());
       },
       opt);
}

// ---------------------------------------------------------------------------
// TMP-to-TMP protocol
// ---------------------------------------------------------------------------

void TmpProcess::HandleRemoteBegin(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  if (FindTxn(*t) != nullptr) {
    Reply(msg, Status::Ok());  // idempotent
    return;
  }
  if (LookupDisposition(*t) == Disposition::kAborted) {
    Reply(msg, Status::Aborted("previously aborted at this node"));
    return;
  }
  CreateTxn(*t, /*is_home=*/false, /*parent=*/msg.src.node);
  Reply(msg, Status::Ok());
}

void TmpProcess::HandlePhase1(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  TxnEntry* txn = FindTxn(*t);
  if (txn == nullptr) {
    // No updates here (or already resolved): committed -> affirmative,
    // aborted -> negative (forces network consensus to abort).
    Disposition d = LookupDisposition(*t);
    Reply(msg, d == Disposition::kAborted ? Status::Aborted() : Status::Ok());
    return;
  }
  if (txn->state == TxnState::kAborting || txn->state == TxnState::kAborted) {
    // Unilateral abort happened before phase 1: respond negatively.
    Reply(msg, Status::Aborted("unilaterally aborted"));
    return;
  }
  SetState(txn, TxnState::kEnding);
  stats().Incr(m_.phase1_received);
  // Remember the home's piggybacked ballot (paxos deployments): a recovery
  // proposal for this instance must start at a higher attempt.
  DecodePhase1Ballot(Slice(msg.payload), &txn->home_ballot);
  net::Message request = msg;
  Transid transid = *t;
  RunPhase1(txn, [this, request, transid](bool ok) {
    TxnEntry* txn = FindTxn(transid);
    if (txn == nullptr) {
      Reply(request, Status::Ok());
      return;
    }
    if (!ok) {
      Reply(request, Status::Aborted("subtree phase 1 failed"));
      StartAbort(transid, "phase 1 failed in subtree");
      return;
    }
    // Affirmative reply: from here on this node holds the transaction's
    // locks until the final disposition arrives (in-doubt).
    // Paxos Commit: the affirmative vote also goes straight to the
    // acceptors — this participant's phase-2a message, forced at F+1
    // acceptors and acked to the home, whose tally is the commit point.
    if (PaxosDeployed() && txn->home_ballot != 0) CastVote(txn);
    Reply(request, Status::Ok());
  });
}

void TmpProcess::RunPhase1(TxnEntry* txn, std::function<void(bool)> done) {
  // Phase one: write-force every local audit trail, and transitively ask
  // each child node to do likewise (critical-response).
  const uint64_t packed = txn->transid.Pack();
  Trace(sim::TraceEventKind::kPhase1Start, packed,
        static_cast<uint32_t>(config_.audit_processes.size()),
        static_cast<uint32_t>(txn->children.size()));
  auto traced = [this, packed, done = std::move(done)](bool ok) {
    Trace(sim::TraceEventKind::kPhase1Done, packed, ok ? 1 : 0);
    done(ok);
  };
  auto pending = std::make_shared<int>(0);
  auto failed = std::make_shared<bool>(false);
  auto finish = [pending, failed, done = std::move(traced)]() {
    if (--*pending == 0) done(!*failed);
  };

  *pending = static_cast<int>(config_.audit_processes.size()) +
             static_cast<int>(txn->children.size());
  if (*pending == 0) {
    *pending = 1;
    finish();
    return;
  }
  // Paxos Commit, home side: the home's own prepared-vote leaves the moment
  // its local audit forces complete — it does not wait for the children's
  // phase-1 replies. The children's votes travel to the acceptors
  // concurrently; that overlap is the saved WAN round trip.
  const bool paxos_vote = PaxosEnabledFor(*txn);
  const Transid transid = txn->transid;
  auto audit_left = std::make_shared<int>(
      static_cast<int>(config_.audit_processes.size()));
  if (paxos_vote && *audit_left == 0) CastVote(txn);
  os::CallOptions force_opt;
  force_opt.timeout = config_.force_timeout;
  force_opt.retries = 2;
  for (const auto& name : config_.audit_processes) {
    stats().Incr(m_.audit_forces);
    Trace(sim::TraceEventKind::kAuditForce, packed);
    Call(net::Address(node()->id(), name), audit::kAuditForce, {},
         [this, failed, finish, audit_left, paxos_vote, transid](
             const Status& s, const net::Message&) {
           if (!s.ok()) *failed = true;
           if (paxos_vote && --*audit_left == 0 && !*failed) {
             TxnEntry* t = FindTxn(transid);
             if (t != nullptr && t->state == TxnState::kEnding) CastVote(t);
           }
           finish();
         },
         force_opt);
  }
  os::CallOptions p1_opt;
  p1_opt.timeout = config_.phase1_timeout;
  // Under Paxos Commit the home's attempt-0 ballot rides the existing
  // phase-1 fan-out (Gray & Lamport's "free" prepare phase); plain 2PC
  // keeps the 8-byte payload so its wire traces stay byte-identical.
  Bytes p1_payload =
      PaxosEnabledFor(*txn)
          ? EncodePhase1Paxos(txn->transid, MakePaxosBallot(0, node()->id()))
          : EncodeTransidPayload(txn->transid);
  for (net::NodeId child : txn->children) {
    stats().Incr(m_.phase1_sent);
    Call(Tmp(child), kTmfPhase1, p1_payload,
         [this, failed, finish, paxos_vote, transid, child](
             const Status& s, const net::Message&) {
           if (!s.ok()) {
             *failed = true;
           } else if (paxos_vote) {
             // The affirmative reply is the child's prepared-vote — force
             // it into this node's co-located acceptors on its behalf.
             DepositChildVote(transid, child);
           }
           finish();
         },
         p1_opt);
  }
}

void TmpProcess::CompleteCommit(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  if (PaxosEnabledFor(*txn)) {
    // Paxos Commit: the commit point is the forced-vote ack tally
    // (HandlePaxosVoteAck), which usually fires before phase 1 even
    // finishes. Reaching here with the transaction still ending means some
    // voter's F+1 acks are missing — arm the fallback rounds.
    ArmPaxosFallbackTimer(transid);
    return;
  }
  // The commit record force on the Monitor Audit Trail is the commit point.
  // Group commit: every transaction whose phase 1 finished before a physical
  // MAT write starts shares that write; a commit deciding while a write is
  // in flight joins the batch for the next one.
  mat_waiting_.push_back(MatWaiter{transid, current_trace()});
  if (mat_write_in_flight_ || mat_gathering_) return;
  ArmMatWrite();
}

void TmpProcess::ArmMatWrite() {
  if (config_.mat_group_commit_window > 0) {
    mat_gathering_ = true;
    SetTimer(config_.mat_group_commit_window, [this]() { StartMatWrite(); });
  } else {
    StartMatWrite();
  }
}

void TmpProcess::StartMatWrite() {
  mat_gathering_ = false;
  if (mat_waiting_.empty()) return;
  mat_write_in_flight_ = true;
  std::vector<MatWaiter> batch = std::move(mat_waiting_);
  mat_waiting_.clear();
  stats().Incr(m_.mat_forces);
  stats().Record(m_.mat_group_commit_size, static_cast<int64_t>(batch.size()));
  SetTimer(config_.mat_force_latency, [this, batch = std::move(batch)]() {
    mat_write_in_flight_ = false;
    for (const MatWaiter& w : batch) {
      WithTraceContext(w.trace,
                       [this, &w]() { CommitPointReached(w.transid); });
    }
    if (!mat_waiting_.empty()) ArmMatWrite();
  });
}

void TmpProcess::CommitPointReached(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  if (config_.monitor_trail != nullptr) {
    config_.monitor_trail->AppendForced(
        audit::CompletionRecord{transid, audit::Completion::kCommitted});
  }
  Trace(sim::TraceEventKind::kCommitRecord, transid.Pack());
  SetState(txn, TxnState::kEnded);
  stats().Incr(m_.commits);
  // Phase two: unlock everywhere. Locally via targeted state-change
  // messages; remotely via safe-delivery (inaccessibility of a node does
  // not impede END-TRANSACTION completion on the home node).
  NotifyLocalDiscs(transid,
                   static_cast<uint8_t>(discprocess::DiscTxnState::kEnded));
  // Acceptor-log GC: once every child has acked its phase-2 delivery no
  // resolver will ever need the voter instances — queue them for
  // reclamation at the acceptors.
  if (PaxosEnabledFor(*txn)) {
    reclaim_waiting_[transid.Pack()] =
        ReclaimEntry{Disposition::kCommitted, ReclaimMaskFor(*txn)};
  }
  for (net::NodeId child : txn->children) {
    QueueSafeDelivery(child, kTmfPhase2, transid);
  }
  ReplyToClient(txn, Status::Ok());
  DropTxn(transid);
}

// ---------------------------------------------------------------------------
// Paxos Commit
// ---------------------------------------------------------------------------

bool TmpProcess::PaxosDeployed() const {
  return config_.commit_protocol == CommitProtocol::kPaxos &&
         !config_.acceptor_endpoints.empty();
}

bool TmpProcess::PaxosEnabledFor(const TxnEntry& txn) const {
  // Only distributed transactions have an in-doubt window to shrink;
  // single-node commits keep the home MAT force as their commit point.
  return PaxosDeployed() && txn.is_home && !txn.children.empty();
}

PaxosRoundConfig TmpProcess::PaxosConfig() const {
  PaxosRoundConfig cfg;
  cfg.endpoints = config_.acceptor_endpoints;
  cfg.call_timeout = config_.paxos_round_timeout;
  return cfg;
}

void TmpProcess::MaybePaxosEscalate(const Transid& transid, TxnEntry* txn) {
  // Grace gate: a transaction that entered its in-doubt window less than one
  // resolve interval ago is most likely a healthy commit mid-flight (the
  // vote tally plus phase 2 land within tens of milliseconds).
  // Usurping its ballot with an abort-proposing round would cancel commits
  // that were about to succeed; only transactions that have already waited
  // out a full interval are genuinely stuck.
  if (txn->indoubt_since == 0) {
    // A takeover reconstructed this entry already in kEnding, so the
    // volatile clock was lost. Restart it here rather than leave the entry
    // permanently un-escalatable: it waits out one fresh interval, then
    // the acceptors settle it like any other stuck transaction.
    txn->indoubt_since = sim()->Now();
    return;
  }
  if (sim()->Now() - txn->indoubt_since < config_.indoubt_resolve_interval) {
    return;
  }
  StartPaxosResolve(transid);
}

void TmpProcess::StartPaxosResolve(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding || txn->is_home) return;
  if (txn->paxos_round_in_flight) return;
  txn->paxos_round_in_flight = true;
  // Never re-use the home's initial attempt: a usurping ballot must outrank
  // it so the quorum intersection exposes any accepted value.
  uint32_t floor = (txn->home_ballot >> 16) + 1;
  if (txn->paxos_attempt < floor) txn->paxos_attempt = floor;
  stats().Incr(m_.paxos_rounds);
  // The outcome is spread over per-voter instances — ResolvePaxosOutcome
  // settles the home's instance first (it names the participants), then
  // theirs.
  ResolvePaxosOutcome(
      this, PaxosConfig(), transid, txn->paxos_attempt,
      [this, transid](Disposition chosen) {
        TxnEntry* txn = FindTxn(transid);
        if (txn == nullptr) return;
        txn->paxos_round_in_flight = false;
        if (txn->state != TxnState::kEnding) return;
        if (chosen == Disposition::kCommitted) {
          stats().Incr(m_.paxos_resolved_commits);
          ApplyRemoteCommit(transid, txn);
        } else if (chosen == Disposition::kAborted) {
          stats().Incr(m_.paxos_resolved_aborts);
          StartAbort(transid, "in-doubt resolved by acceptor majority");
        } else {
          ++txn->paxos_attempt;  // retried on the next resolve tick
        }
      });
}

void TmpProcess::SealDecision(const Transid& t) {
  if (!paxos_sealing_.insert(t).second) return;  // round already in flight
  uint32_t& attempt = paxos_seal_attempt_[t];
  if (attempt == 0) attempt = 1;
  stats().Incr(m_.paxos_rounds);
  ResolvePaxosOutcome(
      this, PaxosConfig(), t, attempt++, [this, t](Disposition chosen) {
        paxos_sealing_.erase(t);
        if (chosen == Disposition::kUnknown) return;  // resealed on next query
        paxos_seal_attempt_.erase(t);
        if (FindTxn(t) != nullptr) return;  // tracked meanwhile: live pipeline
        if (LookupDisposition(t) != Disposition::kUnknown) return;  // recorded
        stats().Incr(m_.paxos_seals);
        if (config_.monitor_trail != nullptr) {
          config_.monitor_trail->AppendForced(audit::CompletionRecord{
              t, chosen == Disposition::kCommitted
                     ? audit::Completion::kCommitted
                     : audit::Completion::kAborted});
        }
      });
}

std::vector<size_t> TmpProcess::VoteTargetIndices(
    net::NodeId voter, net::NodeId home,
    const std::set<net::NodeId>& prefer) const {
  const auto& eps = config_.acceptor_endpoints;
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

uint32_t TmpProcess::ReclaimMaskFor(const TxnEntry& txn) const {
  const auto& eps = config_.acceptor_endpoints;
  const size_t n = eps.size();
  const uint32_t all = n >= 32 ? ~0u : (1u << n) - 1;
  const net::NodeId home = txn.transid.home_node;
  uint32_t mask;
  if (txn.paxos_attempt > 0) {
    // A fallback/resolve round fans its accept phase out to the whole
    // group, so instances may exist anywhere.
    mask = all;
  } else {
    mask = 0;
    static const std::set<net::NodeId> kNone;
    for (size_t i : VoteTargetIndices(home, home, txn.children)) {
      mask |= (1u << i);
    }
    for (net::NodeId child : txn.children) {
      for (size_t i : VoteTargetIndices(child, home, kNone)) mask |= (1u << i);
    }
    mask &= all;
  }
  // Pairs on participant nodes seal themselves the instant phase 2 (or the
  // abort) lands there — ReclaimLocalAcceptors — so the home only flushes
  // to its own pairs (free) and, after a fallback, to bystander nodes.
  for (size_t k = 0; k < n; ++k) {
    if (txn.children.count(eps[k].first) != 0) mask &= ~(1u << k);
  }
  return mask;
}

void TmpProcess::CastVote(TxnEntry* txn) {
  const Transid t = txn->transid;
  // Home: ballot (0, home), the implicit promise that rides phase 1.
  // Child: the home's piggybacked ballot. Every voter instance thus lives
  // at one known ballot, and any recovery proposal at attempt >= 1
  // outranks them all.
  const uint32_t ballot =
      txn->is_home ? MakePaxosBallot(0, node()->id()) : txn->home_ballot;
  if (ballot == 0) return;
  std::vector<net::NodeId> participants;
  if (txn->is_home) {
    participants.assign(txn->children.begin(), txn->children.end());
  }
  Bytes vote = EncodePaxosAccept(t, ballot, Disposition::kCommitted,
                                 node()->id(), participants);
  const auto& eps = config_.acceptor_endpoints;
  static const std::set<net::NodeId> kNone;
  const std::set<net::NodeId>& prefer = txn->is_home ? txn->children : kNone;
  // Stamped with the transid so per-transaction message accounting sees the
  // (cross-node) votes even when causal tracing is off.
  set_current_transid(t.Pack());
  for (size_t i : VoteTargetIndices(node()->id(), t.home_node, prefer)) {
    // A child's home-node copies travel as its affirmative phase-1 reply:
    // the home re-materialises the vote locally (DepositChildVote), so a
    // separate cross-node vote message would just be a duplicate.
    if (!txn->is_home && eps[i].first == t.home_node) continue;
    stats().Incr(m_.paxos_votes_cast);
    Send(net::Address(eps[i].first, eps[i].second), kTmfPaxosVote, vote);
  }
  set_current_transid(0);
}

void TmpProcess::DepositChildVote(const Transid& transid, net::NodeId child) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding || !txn->is_home ||
      !PaxosEnabledFor(*txn) || config_.colocated_acceptors.empty()) {
    return;
  }
  // The child's vote, bit-for-bit what CastVote would have sent here: same
  // ballot (0, home) it read off phase 1, value Prepared. Written straight
  // into the co-located pairs' durable logs with HandleVote's exact
  // semantics — durable immediately, usurped ballots rejected, tally
  // credit delayed by the forced-write latency. A direct mutation inside
  // an event this TMP already runs: no message hop and no intermediate
  // events, so it cannot perturb event ordering at any worker count.
  const uint32_t ballot = MakePaxosBallot(0, node()->id());
  static const std::set<net::NodeId> kNone;
  uint32_t bits = 0;
  for (size_t i : VoteTargetIndices(child, transid.home_node, kNone)) {
    for (const auto& ca : config_.colocated_acceptors) {
      if (ca.index != i) continue;
      if (ca.log->SealedValue(transid.Pack()) != nullptr) continue;
      CommitAcceptorEntry& e = ca.log->At(transid, child);
      if (e.born == 0) e.born = sim()->Now();
      if (e.has_value && e.accepted_ballot == ballot &&
          e.value == Disposition::kCommitted) {
        bits |= (1u << ca.index);  // replay: the first force stands
        continue;
      }
      if (ballot < e.promised) continue;  // usurped by a recovery proposer
      e.promised = ballot > e.promised ? ballot : e.promised;
      e.accepted_ballot = ballot;
      e.has_value = true;
      e.value = Disposition::kCommitted;
      stats().Incr(m_.paxos_votes_cast);
      bits |= (1u << ca.index);
    }
  }
  if (bits == 0) return;
  SetTimer(config_.mat_force_latency, [this, transid, child, bits]() {
    TxnEntry* t = FindTxn(transid);
    if (t == nullptr || t->state != TxnState::kEnding || !t->is_home) return;
    t->vote_acks[child] |= bits;
    CheckVoteTally(t);
  });
}

void TmpProcess::HandlePaxosVoteAck(const net::Message& msg) {
  PaxosVoteAck ack;
  if (!DecodePaxosVoteAck(Slice(msg.payload), &ack)) return;
  TxnEntry* txn = FindTxn(ack.transid);
  if (txn == nullptr || txn->state != TxnState::kEnding || !txn->is_home ||
      !PaxosEnabledFor(*txn)) {
    return;  // decided meanwhile (or a stale replay): the ack is moot
  }
  for (uint16_t voter : ack.voters) {
    txn->vote_acks[voter] |= (1u << ack.acceptor_index);
  }
  CheckVoteTally(txn);
}

void TmpProcess::CheckVoteTally(TxnEntry* txn) {
  const size_t acceptors = config_.acceptor_endpoints.size();
  const size_t needed = acceptors / 2 + 1;
  auto prepared = [&](uint16_t voter) {
    auto it = txn->vote_acks.find(voter);
    if (it == txn->vote_acks.end()) return false;
    uint32_t bits = it->second;
    size_t count = 0;
    while (bits != 0) {
      bits &= bits - 1;
      ++count;
    }
    return count >= needed;
  };
  if (!prepared(node()->id())) return;
  for (net::NodeId child : txn->children) {
    if (!prepared(child)) return;
  }
  // Every voter's Prepared is forced at F+1 acceptors: any future
  // resolver's quorum must reveal each of them, so the outcome is fixed —
  // this tally is the commit point, one WAN delay after END arrived.
  stats().Incr(m_.paxos_commit_points);
  stats().Incr(m_.paxos_fast_commit_points);
  CommitPointReached(txn->transid);
}

void TmpProcess::ArmPaxosFallbackTimer(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  if (txn->paxos_fallback_timer != 0) return;
  txn->paxos_fallback_timer =
      SetTimer(config_.paxos_retry_interval, [this, transid]() {
        TxnEntry* txn = FindTxn(transid);
        if (txn == nullptr) return;
        txn->paxos_fallback_timer = 0;
        if (txn->state != TxnState::kEnding) return;
        StartPaxosFallback(transid);
      });
}

void TmpProcess::StartPaxosFallback(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  if (txn->paxos_round_in_flight) return;
  txn->paxos_round_in_flight = true;
  if (txn->paxos_attempt == 0) txn->paxos_attempt = 1;
  stats().Incr(m_.paxos_fallbacks);
  stats().Incr(m_.paxos_rounds);
  // Some voter's F+1 acks never materialised (an acceptor died, a vote was
  // lost, a child answered phase 1 negatively). The home may not abort
  // unilaterally — its own Prepared may already be chosen — so it settles
  // every voter instance with abort-proposing rounds at a usurping ballot
  // and adopts whatever they fix.
  ResolvePaxosOutcome(
      this, PaxosConfig(), transid, txn->paxos_attempt,
      [this, transid](Disposition chosen) {
        TxnEntry* txn = FindTxn(transid);
        if (txn == nullptr) return;
        txn->paxos_round_in_flight = false;
        if (txn->state != TxnState::kEnding) return;
        if (chosen == Disposition::kCommitted) {
          stats().Incr(m_.paxos_commit_points);
          CommitPointReached(transid);
        } else if (chosen == Disposition::kAborted) {
          stats().Incr(m_.paxos_adopted_aborts);
          StartAbort(transid, "paxos: abort fixed by fallback");
        } else {
          // Exponential backoff: during an outage no amount of re-proposing
          // settles the instances, and each retry costs prepare/accept
          // fan-outs — so double the pause per failed attempt (capped at
          // 2s, roughly the shortest heal window worth waiting for).
          ++txn->paxos_attempt;
          const uint32_t shift = std::min(txn->paxos_attempt, 4u);
          SimDuration delay = config_.paxos_retry_interval << shift;
          if (delay > Seconds(2)) delay = Seconds(2);
          SetTimer(delay, [this, transid]() { StartPaxosFallback(transid); });
        }
      });
}

void TmpProcess::MaybeQueueReclaim(const Transid& transid) {
  auto it = reclaim_waiting_.find(transid.Pack());
  if (it == reclaim_waiting_.end()) return;
  for (const SafeDelivery& d : safe_queue_) {
    if (d.transid == transid) return;  // still draining
  }
  reclaim_pending_.emplace_back(it->first, it->second);
  reclaim_waiting_.erase(it);
  if (reclaim_flush_armed_) return;
  reclaim_flush_armed_ = true;
  SetTimer(config_.paxos_reclaim_interval, [this]() { FlushReclaims(); });
}

void TmpProcess::FlushReclaims() {
  reclaim_flush_armed_ = false;
  if (reclaim_pending_.empty() || !IsPrimary()) return;
  // Targeted one-way flush: each acceptor gets only the transactions whose
  // ReclaimMaskFor() bit names it — an acceptor that no vote (and no
  // fallback accept) ever reached holds no instance, so a reclaim there
  // would be a wasted message. Sent outside any transaction's trace (each
  // batch spans several). An acceptor that misses its flush — down or
  // partitioned — reclaims through its own orphan sweep instead.
  const auto& eps = config_.acceptor_endpoints;
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
      stats().Incr(m_.paxos_reclaims_sent);
      Send(net::Address(eps[k].first, eps[k].second), kTmfPaxosReclaim,
           EncodePaxosReclaim(batches[k]));
    }
  });
}

void TmpProcess::ReclaimLocalAcceptors(const Transid& transid, Disposition d) {
  // The disposition just landed on this node, so every co-located pair's
  // instances are sealed in place — a direct mutation of the shared durable
  // log, no message and no event. This is why ReclaimMaskFor() strips
  // participant-node bits from the home's network flush. Empty (every 2PC
  // deployment) makes this a no-op.
  for (const auto& ca : config_.colocated_acceptors) {
    ca.log->Seal(transid.Pack(), d);
  }
}

void TmpProcess::HandlePhase2(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  // Safe-delivery semantics: the reply acknowledges receipt only.
  Reply(msg, Status::Ok());
  TxnEntry* txn = FindTxn(*t);
  if (txn == nullptr) {
    if (LookupDisposition(*t) != Disposition::kUnknown) return;  // processed
    // Orphan: the entry was lost (e.g. a TMP takeover raced the
    // remote-begin checkpoint) but local DISCPROCESSes may still hold the
    // transaction's locks. Recreate the entry and run the commit pipeline —
    // every step is idempotent.
    stats().Incr(m_.orphan_phase2);
    txn = CreateTxn(*t, /*is_home=*/false, msg.src.node);
  }
  stats().Incr(m_.phase2_received);
  Trace(sim::TraceEventKind::kPhase2Recv, t->Pack());
  ApplyRemoteCommit(*t, txn);
}

void TmpProcess::ApplyRemoteCommit(const Transid& transid, TxnEntry* txn) {
  if (config_.monitor_trail != nullptr) {
    config_.monitor_trail->AppendForced(
        audit::CompletionRecord{transid, audit::Completion::kCommitted});
  }
  if (!txn->is_home) ReclaimLocalAcceptors(transid, Disposition::kCommitted);
  if (txn->state == TxnState::kActive) SetState(txn, TxnState::kEnding);
  SetState(txn, TxnState::kEnded);
  NotifyLocalDiscs(transid,
                   static_cast<uint8_t>(discprocess::DiscTxnState::kEnded));
  for (net::NodeId child : txn->children) {
    QueueSafeDelivery(child, kTmfPhase2, transid);
  }
  DropTxn(transid);
}

void TmpProcess::HandleAbortTxn(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  Reply(msg, Status::Ok());  // acknowledge receipt
  if (FindTxn(*t) == nullptr) {
    if (LookupDisposition(*t) != Disposition::kUnknown) return;  // processed
    // Orphan (see HandlePhase2): recreate the entry so the abort pipeline
    // releases whatever local state the transaction left behind. The
    // BACKOUTPROCESS finds this node's images in the local audit trails.
    stats().Incr(m_.orphan_aborts);
    CreateTxn(*t, /*is_home=*/false, msg.src.node);
  }
  StartAbort(*t, "abort from parent node");
}

// ---------------------------------------------------------------------------
// Abort and backout
// ---------------------------------------------------------------------------

void TmpProcess::StartAbort(const Transid& transid, const std::string& reason) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr) return;
  if (txn->state == TxnState::kAborting || txn->state == TxnState::kAborted) {
    return;  // already under way
  }
  LOG_DEBUG << DebugName() << " aborting " << transid.ToString() << ": " << reason;
  stats().Incr(m_.aborts_started);
  Trace(sim::TraceEventKind::kAbortStart, transid.Pack());
  // Acceptor-log GC: an ending home transaction may already have voter
  // instances forced at the acceptors (its own or its children's votes) —
  // reclaim them once the abort safe-deliveries drain. Aborts straight out
  // of kActive never voted, so there is nothing to reclaim.
  if (txn->state == TxnState::kEnding && PaxosEnabledFor(*txn)) {
    reclaim_waiting_[transid.Pack()] =
        ReclaimEntry{Disposition::kAborted, ReclaimMaskFor(*txn)};
  }
  // Participant-side GC: an abort here is either authoritative (the parent
  // or an acceptor majority said so) or pre-vote (this node never voted and,
  // aborting, never will) — both fix the transaction's fate, so co-located
  // acceptors can seal their instances now. Late vote replays bounce off
  // the sealed record.
  if (!txn->is_home) ReclaimLocalAcceptors(transid, Disposition::kAborted);
  SetState(txn, TxnState::kAborting);
  // Locks stay held during backout; DISCPROCESSes reject new work for the
  // transaction. Children learn via safe-delivery.
  NotifyLocalDiscs(transid,
                   static_cast<uint8_t>(discprocess::DiscTxnState::kAborting));
  for (net::NodeId child : txn->children) {
    QueueSafeDelivery(child, kTmfAbortTxn, transid);
  }
  os::CallOptions opt;
  opt.timeout = config_.backout_timeout;
  opt.retries = 2;
  Call(net::Address(node()->id(), config_.backout_process), kBackoutTxn,
       EncodeTransidPayload(transid),
       [this, transid](const Status& s, const net::Message&) {
         if (!s.ok()) {
           LOG_WARN << DebugName() << " backout of " << transid.ToString()
                    << " failed: " << s.ToString();
         }
         FinishAbort(transid);
       },
       opt);
}

void TmpProcess::FinishAbort(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kAborting) return;
  if (config_.monitor_trail != nullptr) {
    config_.monitor_trail->AppendForced(
        audit::CompletionRecord{transid, audit::Completion::kAborted});
  }
  SetState(txn, TxnState::kAborted);
  stats().Incr(m_.backouts);
  Trace(sim::TraceEventKind::kAbortDone, transid.Pack());
  NotifyLocalDiscs(transid,
                   static_cast<uint8_t>(discprocess::DiscTxnState::kAborted));
  // END callers learn their transaction aborted; ABORT callers get success.
  ReplyToClient(txn, txn->client_tag == kTmfAbort
                         ? Status::Ok()
                         : Status::Aborted("transaction backed out"));
  DropTxn(transid);
}

void TmpProcess::ReplyToClient(TxnEntry* txn, const Status& status,
                               Bytes payload) {
  if (txn->client_req == 0) return;
  SendReply(txn->client, txn->client_tag, txn->client_req, status,
            std::move(payload));
  txn->client_req = 0;
}

// ---------------------------------------------------------------------------
// Utilities
// ---------------------------------------------------------------------------

void TmpProcess::HandleStatus(const net::Message& msg) {
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  Disposition d = LookupDisposition(*t);
  Bytes payload;
  PutFixed8(&payload, static_cast<uint8_t>(d));
  Reply(msg, Status::Ok(), payload);
}

void TmpProcess::HandleForceDisposition(const net::Message& msg) {
  Transid t;
  Disposition d;
  if (!DecodeForceDisposition(Slice(msg.payload), &t, &d)) {
    Reply(msg, Status::InvalidArgument("bad force-disposition payload"));
    return;
  }
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr) {
    Reply(msg, Status::NotFound("transaction not held here"));
    return;
  }
  stats().Incr(m_.forced_dispositions);
  if (d == Disposition::kCommitted) {
    ApplyRemoteCommit(t, txn);
  } else {
    StartAbort(t, "manual override");
  }
  Reply(msg, Status::Ok());
}

void TmpProcess::HandleResolveTxn(const net::Message& msg) {
  Transid t;
  bool recovering;
  if (!DecodeResolveTxn(Slice(msg.payload), &t, &recovering)) {
    Reply(msg, Status::InvalidArgument("bad resolve-txn payload"));
    return;
  }
  stats().Incr(m_.resolves_served);
  // The durable MAT is ground truth wherever the query lands: a recorded
  // completion outlives any crash.
  Disposition d = LookupDisposition(t);
  if (d != Disposition::kUnknown || t.home_node != node()->id()) {
    // Not the home node: we can report our MAT but must not decide.
    Reply(msg, Status::Ok(), EncodeDisposition(d));
    return;
  }
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr) {
    if (PaxosDeployed()) {
      // Under Paxos Commit the absent MAT record proves nothing: the commit
      // point lives at the acceptors, and this TMP may have been respawned
      // after a majority accepted commit but before the home learned it.
      // Seal the instance at the acceptors first (an abort-proposing round
      // that adopts any chosen value); until the MAT holds the sealed
      // outcome the honest answer is unknown.
      SealDecision(t);
      Reply(msg, Status::Ok(), EncodeDisposition(Disposition::kUnknown));
      return;
    }
    // We are the home, there is no durable completion record, and the
    // transaction is not tracked (this TMP may have been respawned fresh
    // after losing both pair members). Commit requires the home's forced
    // MAT record, so its absence proves no commit happened and never will:
    // presumed abort is safe and final.
    Reply(msg, Status::Ok(), EncodeDisposition(Disposition::kAborted));
    return;
  }
  if (!recovering) {
    // Live in-doubt refresh while the transaction is still in flight here:
    // the querier keeps waiting for the normal phase-2/abort delivery.
    Reply(msg, Status::Ok(), EncodeDisposition(Disposition::kUnknown));
    return;
  }
  if (txn->state == TxnState::kEnding && PaxosEnabledFor(*txn)) {
    // The commit point is external now: an accept round may already hold a
    // majority, so the home must not abort unilaterally. Let the in-flight
    // round (or the recoverer's own acceptor query) settle the outcome.
    Reply(msg, Status::Ok(), EncodeDisposition(Disposition::kUnknown));
    return;
  }
  // A recovering participant lost its volatile phase-1 promise, so the
  // transaction can no longer commit. Abort it; CommitPointReached checks
  // the state, so a MAT write already in flight cannot commit it afterwards.
  StartAbort(t, "participant node recovering");
  Reply(msg, Status::Ok(), EncodeDisposition(Disposition::kAborted));
}

// ---------------------------------------------------------------------------
// In-doubt resolution
// ---------------------------------------------------------------------------

void TmpProcess::ArmIndoubtResolve() {
  if (config_.indoubt_resolve_interval <= 0) return;
  SetTimer(config_.indoubt_resolve_interval, [this]() {
    if (IsPrimary()) {
      ResolveIndoubts();
      SweepOrphanLocks();
    }
    ArmIndoubtResolve();
  });
}

void TmpProcess::ResolveIndoubts() {
  std::vector<Transid> indoubt;
  for (const auto& [transid, txn] : txns_) {
    // One probe per transaction at a time: stacking a fresh call on every
    // tick while earlier ones are still timing out both multiplies traffic
    // at a dead home and double-counts blocked ticks.
    if (!txn.is_home && txn.state == TxnState::kEnding &&
        !txn.resolve_in_flight) {
      indoubt.push_back(transid);
    }
  }
  for (const Transid& t : indoubt) {
    if (t.home_node == node()->id()) continue;  // home resolves locally
    TxnEntry* probing = FindTxn(t);
    if (probing == nullptr) continue;
    if (PaxosDeployed()) {
      // Paxos Commit: the acceptor log, not the home, owns the commit record,
      // so the per-tick kTmfResolveTxn probe is a wasted cross-node call —
      // it either times out against a dead home (the common reason the
      // window exists at all) or answers what an acceptor round settles
      // authoritatively anyway. Escalate straight to the acceptors; the
      // grace gate inside keeps healthy mid-flight commits un-usurped.
      MaybePaxosEscalate(t, probing);
      continue;
    }
    probing->resolve_in_flight = true;
    stats().Incr(m_.resolves_sent);
    os::CallOptions opt;
    // Diagnose a dead home within one resolve tick, not after the full
    // safe-call timeout: a blocked participant should re-ask on every tick
    // rather than stack timeouts.
    opt.timeout = config_.safe_call_timeout;
    if (config_.indoubt_resolve_interval > 0 &&
        config_.indoubt_resolve_interval < opt.timeout) {
      opt.timeout = config_.indoubt_resolve_interval;
    }
    Call(Tmp(t.home_node), kTmfResolveTxn,
         EncodeResolveTxn(t, /*recovering=*/false),
         [this, t](const Status& s, const net::Message& reply) {
           if (TxnEntry* probed = FindTxn(t)) probed->resolve_in_flight = false;
           if (!s.ok()) {
             TxnEntry* blocked = FindTxn(t);
             if (blocked == nullptr || blocked->state != TxnState::kEnding) {
               return;  // resolved by other means while the call was in flight
             }
             // Home unreachable while this participant still holds locks
             // in-doubt: one blocked resolution tick. 2PC can only retry
             // next tick, so each tick of a dead-home window adds one.
             stats().Incr(m_.indoubt_blocked_on_home);
             return;
           }
           Disposition d;
           if (!DecodeDisposition(Slice(reply.payload), &d)) {
             // Malformed reply: counted, not silently swallowed.
             stats().Incr(m_.resolve_malformed_replies);
             return;  // retry next tick
           }
           TxnEntry* txn = FindTxn(t);
           if (txn == nullptr || txn->state != TxnState::kEnding) return;
           if (d == Disposition::kCommitted) {
             stats().Incr(m_.indoubt_resolved_commits);
             ApplyRemoteCommit(t, txn);
           } else if (d == Disposition::kAborted) {
             stats().Incr(m_.indoubt_resolved_aborts);
             StartAbort(t, "in-doubt resolved by home");
           }
           // kUnknown: the home is still deciding; ask again next tick.
         },
         opt);
  }
}

void TmpProcess::SweepOrphanLocks() {
  for (const auto& name : config_.disc_processes) {
    os::CallOptions opt;
    opt.timeout = config_.safe_call_timeout;
    Call(net::Address(node()->id(), name), discprocess::kDiscListLockOwners,
         {},
         [this](const Status& s, const net::Message& reply) {
           if (!s.ok()) return;  // disc mid-takeover: sweep again next tick
           auto owners =
               discprocess::LockOwnersReply::Decode(Slice(reply.payload));
           if (!owners.ok()) return;
           for (const Transid& t : owners->owners) {
             if (FindTxn(t) != nullptr) {
               orphan_suspects_.erase(t);  // tracked after all: not orphaned
               continue;
             }
             // Two-strike rule: a holder unknown on one tick may be a
             // remote begin still registering; unknown on two consecutive
             // ticks is genuinely orphaned.
             if (orphan_suspects_.insert(t).second) continue;
             ResolveOrphanLock(t);
           }
         },
         opt);
  }
}

void TmpProcess::ResolveOrphanLock(const Transid& t) {
  // The durable record outranks everything: a local MAT completion record
  // (first-completion-wins) is the transaction's outcome.
  Disposition d = LookupDisposition(t);
  if (d != Disposition::kUnknown) {
    ApplyOrphanDisposition(t, d);
    return;
  }
  if (t.home_node == node()->id()) {
    // We are the home TMP, we do not track it, and the MAT has no record:
    // the transaction never reached its commit point. Presumed abort.
    ApplyOrphanDisposition(t, Disposition::kAborted);
    return;
  }
  stats().Incr(m_.resolves_sent);
  os::CallOptions opt;
  opt.timeout = config_.safe_call_timeout;
  Call(Tmp(t.home_node), kTmfResolveTxn, EncodeResolveTxn(t, /*recovering=*/false),
       [this, t](const Status& s, const net::Message& reply) {
         Disposition d;
         if (!s.ok() || !DecodeDisposition(Slice(reply.payload), &d)) {
           return;  // home unreachable: keep the suspect, retry next tick
         }
         if (d == Disposition::kUnknown) {
           // The home still tracks it live — the lock has an owner after
           // all; forget the suspicion.
           orphan_suspects_.erase(t);
           return;
         }
         if (FindTxn(t) != nullptr) return;  // registered meanwhile
         ApplyOrphanDisposition(t, d);
       },
       opt);
}

void TmpProcess::ApplyOrphanDisposition(const Transid& t, Disposition d) {
  orphan_suspects_.erase(t);
  // Recreate the entry and run the ordinary orphan pipeline (idempotent):
  // commit releases the locks and keeps the images; abort drives the
  // BACKOUTPROCESS so any re-applied images are undone before release.
  TxnEntry* txn = CreateTxn(t, /*is_home=*/t.home_node == node()->id(),
                            t.home_node);
  if (d == Disposition::kCommitted) {
    stats().Incr(m_.orphan_lock_commits);
    ApplyRemoteCommit(t, txn);
  } else {
    stats().Incr(m_.orphan_lock_aborts);
    StartAbort(t, "orphaned disc lock (transaction unknown everywhere)");
  }
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

void TmpProcess::OnNodeDown(net::NodeId peer) {
  if (!IsPrimary()) return;
  std::vector<Transid> to_abort;
  for (auto& [transid, txn] : txns_) {
    if (txn.state != TxnState::kActive) {
      // kEnding: a home/intermediate node's phase-1 call to the peer fails
      // by itself; a child that answered phase 1 affirmatively is in-doubt
      // and must hold its locks. kAborting: already on the way out.
      continue;
    }
    if (txn.children.count(peer) != 0) {
      to_abort.push_back(transid);  // participant lost: automatic abort
    } else if (!txn.is_home && txn.parent == peer) {
      to_abort.push_back(transid);  // lost our introducer: unilateral abort
      stats().Incr(m_.unilateral_aborts);
    }
  }
  for (const auto& t : to_abort) {
    StartAbort(t, "communication lost with node " + std::to_string(peer));
  }
}

void TmpProcess::OnNodeUp(net::NodeId) {
  if (IsPrimary()) TrySafeDeliveries();
}

// ---------------------------------------------------------------------------
// Safe delivery
// ---------------------------------------------------------------------------

void TmpProcess::QueueSafeDelivery(net::NodeId dest, uint32_t tag,
                                   const Transid& transid) {
  safe_queue_.push_back(SafeDelivery{dest, tag, transid, false});
  stats().Incr(m_.safe_queued);
  Trace(sim::TraceEventKind::kPhase2Queued, transid.Pack(), tag, dest);
  Bytes ckpt;
  PutFixed8(&ckpt, kCkptSafeAdd);
  PutFixed16(&ckpt, dest);
  PutFixed32(&ckpt, tag);
  PutFixed64(&ckpt, transid.Pack());
  SendCheckpoint(std::move(ckpt));
  TrySafeDeliveries();
}

void TmpProcess::TrySafeDeliveries() {
  for (auto it = safe_queue_.begin(); it != safe_queue_.end(); ++it) {
    if (it->in_flight) continue;
    it->in_flight = true;
    net::NodeId dest = it->dest;
    uint32_t tag = it->tag;
    Transid transid = it->transid;
    os::CallOptions opt;
    opt.timeout = config_.safe_call_timeout;
    Call(Tmp(dest), tag, EncodeTransidPayload(transid),
         [this, dest, tag, transid](const Status& s, const net::Message&) {
           for (auto qit = safe_queue_.begin(); qit != safe_queue_.end(); ++qit) {
             if (qit->dest == dest && qit->tag == tag &&
                 qit->transid == transid) {
               if (s.ok()) {
                 safe_queue_.erase(qit);
                 stats().Incr(m_.safe_delivered);
                 Bytes ckpt;
                 PutFixed8(&ckpt, kCkptSafeRemove);
                 PutFixed16(&ckpt, dest);
                 PutFixed32(&ckpt, tag);
                 PutFixed64(&ckpt, transid.Pack());
                 SendCheckpoint(std::move(ckpt));
                 MaybeQueueReclaim(transid);
               } else {
                 qit->in_flight = false;
               }
               break;
             }
           }
           if (!safe_queue_.empty() && safe_timer_ == 0) {
             safe_timer_ = SetTimer(config_.safe_retry_interval, [this]() {
               safe_timer_ = 0;
               TrySafeDeliveries();
             });
           }
         },
         opt);
  }
}

// ---------------------------------------------------------------------------
// Pair checkpointing and takeover
// ---------------------------------------------------------------------------

void TmpProcess::CheckpointTxn(const TxnEntry& txn, bool removed) {
  if (!HasBackup()) return;
  Bytes out;
  if (removed) {
    PutFixed8(&out, kCkptTxnRemove);
    PutFixed64(&out, txn.transid.Pack());
  } else {
    PutFixed8(&out, kCkptTxnUpsert);
    PutFixed64(&out, txn.transid.Pack());
    PutFixed8(&out, static_cast<uint8_t>(txn.state));
    PutFixed8(&out, txn.is_home ? 1 : 0);
    PutFixed16(&out, txn.parent);
    PutVarint32(&out, static_cast<uint32_t>(txn.children.size()));
    for (net::NodeId child : txn.children) PutFixed16(&out, child);
    PutFixed16(&out, txn.client.node);
    PutFixed32(&out, txn.client.pid);
    PutFixed64(&out, txn.client_req);
    PutFixed32(&out, txn.client_tag);
  }
  SendCheckpoint(std::move(out));
}

void TmpProcess::OnCheckpoint(const Slice& delta) {
  Slice in = delta;
  while (!in.empty()) {
    uint8_t type;
    if (!GetFixed8(&in, &type)) return;
    switch (type) {
      case kCkptTxnUpsert: {
        uint64_t packed;
        uint8_t state, is_home;
        uint16_t parent;
        uint32_t nchildren;
        if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &state) ||
            !GetFixed8(&in, &is_home) || !GetFixed16(&in, &parent) ||
            !GetVarint32(&in, &nchildren)) {
          return;
        }
        TxnEntry entry;
        entry.transid = Transid::Unpack(packed);
        entry.state = static_cast<TxnState>(state);
        entry.is_home = is_home != 0;
        entry.parent = parent;
        for (uint32_t i = 0; i < nchildren; ++i) {
          uint16_t child;
          if (!GetFixed16(&in, &child)) return;
          entry.children.insert(child);
        }
        uint16_t cnode;
        uint32_t cpid, ctag;
        uint64_t creq;
        if (!GetFixed16(&in, &cnode) || !GetFixed32(&in, &cpid) ||
            !GetFixed64(&in, &creq) || !GetFixed32(&in, &ctag)) {
          return;
        }
        entry.client = net::ProcessId{cnode, cpid};
        entry.client_req = creq;
        entry.client_tag = ctag;
        txns_[entry.transid] = std::move(entry);
        break;
      }
      case kCkptTxnRemove: {
        uint64_t packed;
        if (!GetFixed64(&in, &packed)) return;
        txns_.erase(Transid::Unpack(packed));
        break;
      }
      case kCkptSafeAdd: {
        uint16_t dest;
        uint32_t tag;
        uint64_t packed;
        if (!GetFixed16(&in, &dest) || !GetFixed32(&in, &tag) ||
            !GetFixed64(&in, &packed)) {
          return;
        }
        safe_queue_.push_back(
            SafeDelivery{dest, tag, Transid::Unpack(packed), false});
        break;
      }
      case kCkptSafeRemove: {
        uint16_t dest;
        uint32_t tag;
        uint64_t packed;
        if (!GetFixed16(&in, &dest) || !GetFixed32(&in, &tag) ||
            !GetFixed64(&in, &packed)) {
          return;
        }
        Transid t = Transid::Unpack(packed);
        for (auto it = safe_queue_.begin(); it != safe_queue_.end(); ++it) {
          if (it->dest == dest && it->tag == tag && it->transid == t) {
            safe_queue_.erase(it);
            break;
          }
        }
        break;
      }
      case kCkptSeq: {
        uint64_t seq;
        if (!GetFixed64(&in, &seq)) return;
        next_seq_ = seq;
        break;
      }
      default:
        return;
    }
  }
}

void TmpProcess::OnTakeover() {
  // Resume interrupted coordination. Every path is idempotent: audit forces
  // re-force, children answer phase 1 again, backout re-applies undos.
  std::vector<Transid> ending, aborting;
  for (auto& [transid, txn] : txns_) {
    if (txn.state == TxnState::kEnding && txn.is_home) ending.push_back(transid);
    if (txn.state == TxnState::kAborting) aborting.push_back(transid);
  }
  for (const auto& transid : ending) {
    stats().Incr(m_.takeover_resumed_commits);
    RunPhase1(FindTxn(transid), [this, transid](bool ok) {
      TxnEntry* txn = FindTxn(transid);
      if (txn == nullptr) return;
      if (ok && txn->state == TxnState::kEnding) {
        CompleteCommit(transid);
      } else if (txn->state == TxnState::kEnding) {
        if (PaxosEnabledFor(*txn)) StartPaxosFallback(transid);
        else StartAbort(transid, "takeover");
      }
    });
  }
  for (const auto& transid : aborting) {
    stats().Incr(m_.takeover_resumed_aborts);
    os::CallOptions opt;
    opt.timeout = config_.backout_timeout;
    opt.retries = 2;
    Call(net::Address(node()->id(), config_.backout_process), kBackoutTxn,
         EncodeTransidPayload(transid),
         [this, transid](const Status&, const net::Message&) {
           FinishAbort(transid);
         },
         opt);
  }
  for (auto& entry : safe_queue_) entry.in_flight = false;
  TrySafeDeliveries();
  // Timers died with the old primary: re-arm abandonment detection.
  for (const auto& [transid, txn] : txns_) {
    if (txn.state == TxnState::kActive) ArmAutoAbort(transid);
  }
}

void TmpProcess::OnBackupAttached() {
  Bytes seq_ckpt;
  PutFixed8(&seq_ckpt, kCkptSeq);
  PutFixed64(&seq_ckpt, next_seq_);
  SendCheckpoint(std::move(seq_ckpt));
  for (const auto& [transid, txn] : txns_) {
    (void)transid;
    CheckpointTxn(txn, false);
  }
  for (const auto& entry : safe_queue_) {
    Bytes ckpt;
    PutFixed8(&ckpt, kCkptSafeAdd);
    PutFixed16(&ckpt, entry.dest);
    PutFixed32(&ckpt, entry.tag);
    PutFixed64(&ckpt, entry.transid.Pack());
    SendCheckpoint(std::move(ckpt));
  }
}

}  // namespace encompass::tmf
