#include "tmf/tmp_process.h"

#include <algorithm>
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

constexpr SimDuration kPhase1Timeout = Seconds(2);  // critical responses
constexpr SimDuration kForceTimeout = Seconds(2);   // local audit force
constexpr SimDuration kSafeRetryInterval = Millis(500);  // safe-delivery pacing
constexpr SimDuration kSafeCallTimeout = Seconds(2);  // one safe-delivery try
constexpr SimDuration kBackoutTimeout = Seconds(5);
// Retried DISCPROCESS state-change notifications (phase 2 / abort release).
constexpr SimDuration kDiscNotifyTimeout = Millis(500);
constexpr int kDiscNotifyRetries = 6;

}  // namespace

TmpProcess::TmpProcess(TmpConfig config)
    : config_(std::move(config)),
      mat_commit_(this, config_.mat_group_commit_window, [this](size_t batch) {
        stats().Incr(m_.mat_forces);
        stats().Record(m_.mat_group_commit_size, static_cast<int64_t>(batch));
      }) {}

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
  // used: every fresh pair spawn carries a new durable floor. (A backup's
  // counter is overwritten by the primary's checkpoint.)
  if (next_seq_ < config_.seq_base) next_seq_ = config_.seq_base;
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
  // The kEnding clock. Non-home: how long the participant held its locks
  // in-doubt (tmf.indoubt_hold_us; the timestamp is kept unconditionally,
  // as a ResolveIndoubt hook may grace-gate on it). Home: END to commit
  // point (tmf.commit_latency_us), wherever the commit protocol puts that
  // point; a kEnding exit to abort records nothing. Both histograms are
  // knob-gated so default deployments keep byte-identical stats snapshots.
  if (!txn->is_home || config_.track_commit_latency) {
    if (to == TxnState::kEnding && txn->indoubt_since == 0) {
      txn->indoubt_since = sim()->Now();
    } else if (from == TxnState::kEnding && txn->indoubt_since != 0) {
      const auto held = static_cast<int64_t>(sim()->Now() - txn->indoubt_since);
      if (!txn->is_home && config_.track_indoubt_hold) {
        stats().Record(m_.indoubt_hold_us, held);
      } else if (txn->is_home && to == TxnState::kEnded) {
        stats().Record(m_.commit_latency_us, held);
      }
      txn->indoubt_since = 0;
    }
  }
  // State changes are broadcast to every processor within the node,
  // regardless of participation (cheap and reliable over the IPC bus).
  stats().Incr(m_.state_broadcasts, node()->AliveCpuCount());
  CheckpointTxn(*txn, /*removed=*/false);
}

bool TmpProcess::DecodeTransid(const net::Message& msg, Transid* t) {
  auto decoded = DecodeTransidPayload(Slice(msg.payload));
  if (!decoded.ok()) {
    Reply(msg, decoded.status());
    return false;
  }
  *t = *decoded;
  return true;
}

bool TmpProcess::SafeDeliveryPending(const Transid& transid) const {
  for (const SafeDelivery& d : safe_queue_) {
    if (d.transid == transid) return true;
  }
  return false;
}

void TmpProcess::DropTxn(const Transid& transid) {
  auto it = txns_.find(transid);
  if (it == txns_.end()) return;
  CheckpointTxn(it->second, /*removed=*/true);
  txns_.erase(it);
}

void TmpProcess::NotifyLocalDiscs(const Transid& t,
                                  discprocess::DiscTxnState state) {
  discprocess::TxnStateChange change;
  change.transid = t;
  change.state = state;
  for (const auto& name : config_.disc_processes) {
    // Reliable delivery: a one-way message sent in a takeover window (pair
    // name momentarily unbound) would be lost, leaving the transaction's
    // locks held forever. The retried call re-resolves the name and reaches
    // the new primary.
    os::CallOptions opt;
    opt.timeout = kDiscNotifyTimeout;
    opt.retries = kDiscNotifyRetries;
    Call(net::Address(node()->id(), name), discprocess::kDiscTxnStateChange,
         change.Encode(), [](const Status&, const net::Message&) {}, opt);
  }
}

void TmpProcess::RecordCompletion(const Transid& t, Disposition d) {
  if (config_.monitor_trail == nullptr) return;
  config_.monitor_trail->AppendForced(audit::CompletionRecord{
      t, d == Disposition::kCommitted ? audit::Completion::kCommitted
                                      : audit::Completion::kAborted});
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
  CheckpointSeq();

  CreateTxn(t, /*is_home=*/true, /*parent=*/0);
  stats().Incr(m_.begins);
  Reply(msg, Status::Ok(), EncodeTransidPayload(t));
}

void TmpProcess::HandleEnd(const net::Message& msg) {
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr) {
    Disposition d = LookupDisposition(t);
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
  RecordClient(txn, msg);
  if (txn->state == TxnState::kEnding) return;  // duplicate END: in progress

  stats().Incr(m_.ends);
  SetState(txn, TxnState::kEnding);
  RunHomePhase1(txn, "phase 1 failed");
}

void TmpProcess::HandleAbort(const net::Message& msg) {
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr) {
    Reply(msg, LookupDisposition(t) == Disposition::kAborted
                   ? Status::Ok()
                   : Status::NotFound("unknown transaction"));
    return;
  }
  RecordClient(txn, msg);
  stats().Incr(m_.voluntary_aborts);
  StartAbort(t, "ABORT-TRANSACTION");
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
  opt.timeout = kPhase1Timeout;
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
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  if (FindTxn(t) != nullptr) {
    Reply(msg, Status::Ok());  // idempotent
    return;
  }
  if (LookupDisposition(t) == Disposition::kAborted) {
    Reply(msg, Status::Aborted("previously aborted at this node"));
    return;
  }
  CreateTxn(t, /*is_home=*/false, /*parent=*/msg.src.node);
  Reply(msg, Status::Ok());
}

void TmpProcess::HandlePhase1(const net::Message& msg) {
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr) {
    // No updates here (or already resolved): committed -> affirmative,
    // aborted -> negative (forces network consensus to abort).
    Disposition d = LookupDisposition(t);
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
  net::Message request = msg;
  RunPhase1(txn, [this, request, t](bool ok) {
    TxnEntry* txn = FindTxn(t);
    if (txn == nullptr) {
      Reply(request, Status::Ok());
      return;
    }
    if (!ok) {
      Reply(request, Status::Aborted("subtree phase 1 failed"));
      StartAbort(t, "phase 1 failed in subtree");
      return;
    }
    // Affirmative reply: from here on this node holds the transaction's
    // locks until the final disposition arrives (in-doubt).
    OnPrepared(txn, request);
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
  const Transid transid = txn->transid;
  auto audit_left = std::make_shared<int>(
      static_cast<int>(config_.audit_processes.size()));
  if (*audit_left == 0) OnAuditForced(transid);
  os::CallOptions force_opt;
  force_opt.timeout = kForceTimeout;
  force_opt.retries = 2;
  for (const auto& name : config_.audit_processes) {
    stats().Incr(m_.audit_forces);
    Trace(sim::TraceEventKind::kAuditForce, packed);
    Call(net::Address(node()->id(), name), audit::kAuditForce, {},
         [this, failed, finish, audit_left, transid](const Status& s,
                                                     const net::Message&) {
           if (!s.ok()) *failed = true;
           if (--*audit_left == 0 && !*failed) OnAuditForced(transid);
           finish();
         },
         force_opt);
  }
  os::CallOptions p1_opt;
  p1_opt.timeout = kPhase1Timeout;
  Bytes p1_payload = Phase1Request(*txn);
  for (net::NodeId child : txn->children) {
    stats().Incr(m_.phase1_sent);
    Call(Tmp(child), kTmfPhase1, p1_payload,
         [this, failed, finish, transid, child](const Status& s,
                                                const net::Message&) {
           if (s.ok()) OnChildPrepared(transid, child);
           else *failed = true;
           finish();
         },
         p1_opt);
  }
}

Bytes TmpProcess::Phase1Request(const TxnEntry& txn) const {
  return EncodeTransidPayload(txn.transid);
}

void TmpProcess::RunHomePhase1(TxnEntry* txn, const char* abort_reason) {
  const Transid transid = txn->transid;
  RunPhase1(txn, [this, transid, abort_reason](bool ok) {
    TxnEntry* txn = FindTxn(transid);
    if (txn == nullptr || txn->state != TxnState::kEnding) return;
    if (ok) CompleteCommit(transid);
    else OnPhase1Failed(txn, abort_reason);
  });
}

void TmpProcess::OnPhase1Failed(TxnEntry* txn, const char* reason) {
  StartAbort(txn->transid, reason);
}

void TmpProcess::CompleteCommit(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  // The commit record force on the Monitor Audit Trail is the commit point.
  mat_commit_.Join([this, transid]() { CommitPointReached(transid); });
}

void TmpProcess::CommitPointReached(const Transid& transid) {
  TxnEntry* txn = FindTxn(transid);
  if (txn == nullptr || txn->state != TxnState::kEnding) return;
  OnDecided(txn, Disposition::kCommitted);
  RecordCompletion(transid, Disposition::kCommitted);
  Trace(sim::TraceEventKind::kCommitRecord, transid.Pack());
  SetState(txn, TxnState::kEnded);
  stats().Incr(m_.commits);
  // Phase two: unlock everywhere. Locally via targeted state-change
  // messages; remotely via safe-delivery (inaccessibility of a node does
  // not impede END-TRANSACTION completion on the home node).
  NotifyLocalDiscs(transid, discprocess::DiscTxnState::kEnded);
  for (net::NodeId child : txn->children) {
    QueueSafeDelivery(child, kTmfPhase2, transid);
  }
  ReplyToClient(txn, Status::Ok());
  DropTxn(transid);
}

void TmpProcess::HandlePhase2(const net::Message& msg) {
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  // Safe-delivery semantics: the reply acknowledges receipt only.
  Reply(msg, Status::Ok());
  TxnEntry* txn = FindTxn(t);
  if (txn == nullptr) {
    if (LookupDisposition(t) != Disposition::kUnknown) return;  // processed
    // Orphan: the entry was lost (e.g. a TMP takeover raced the
    // remote-begin checkpoint) but local DISCPROCESSes may still hold the
    // transaction's locks. Recreate the entry and run the commit pipeline —
    // every step is idempotent.
    stats().Incr(m_.orphan_phase2);
    txn = CreateTxn(t, /*is_home=*/false, msg.src.node);
  }
  stats().Incr(m_.phase2_received);
  Trace(sim::TraceEventKind::kPhase2Recv, t.Pack());
  ApplyRemoteCommit(t, txn);
}

void TmpProcess::ApplyRemoteCommit(const Transid& transid, TxnEntry* txn) {
  RecordCompletion(transid, Disposition::kCommitted);
  OnDecided(txn, Disposition::kCommitted);
  if (txn->state == TxnState::kActive) SetState(txn, TxnState::kEnding);
  SetState(txn, TxnState::kEnded);
  NotifyLocalDiscs(transid, discprocess::DiscTxnState::kEnded);
  for (net::NodeId child : txn->children) {
    QueueSafeDelivery(child, kTmfPhase2, transid);
  }
  DropTxn(transid);
}

void TmpProcess::HandleAbortTxn(const net::Message& msg) {
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  Reply(msg, Status::Ok());  // acknowledge receipt
  if (FindTxn(t) == nullptr) {
    if (LookupDisposition(t) != Disposition::kUnknown) return;  // processed
    // Orphan (see HandlePhase2): recreate the entry so the abort pipeline
    // releases whatever local state the transaction left behind. The
    // BACKOUTPROCESS finds this node's images in the local audit trails.
    stats().Incr(m_.orphan_aborts);
    CreateTxn(t, /*is_home=*/false, msg.src.node);
  }
  StartAbort(t, "abort from parent node");
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
  OnDecided(txn, Disposition::kAborted);
  SetState(txn, TxnState::kAborting);
  // Locks stay held during backout; DISCPROCESSes reject new work for the
  // transaction. Children learn via safe-delivery.
  NotifyLocalDiscs(transid, discprocess::DiscTxnState::kAborting);
  for (net::NodeId child : txn->children) {
    QueueSafeDelivery(child, kTmfAbortTxn, transid);
  }
  RunBackout(transid);
}

void TmpProcess::RunBackout(const Transid& transid) {
  os::CallOptions opt;
  opt.timeout = kBackoutTimeout;
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
  RecordCompletion(transid, Disposition::kAborted);
  SetState(txn, TxnState::kAborted);
  stats().Incr(m_.backouts);
  Trace(sim::TraceEventKind::kAbortDone, transid.Pack());
  NotifyLocalDiscs(transid, discprocess::DiscTxnState::kAborted);
  // END callers learn their transaction aborted; ABORT callers get success.
  ReplyToClient(txn, txn->client_tag == kTmfAbort
                         ? Status::Ok()
                         : Status::Aborted("transaction backed out"));
  DropTxn(transid);
}

void TmpProcess::RecordClient(TxnEntry* txn, const net::Message& msg) {
  txn->client = msg.src;
  txn->client_req = msg.request_id;
  txn->client_tag = msg.tag;
  CheckpointTxn(*txn, false);
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
  Transid t;
  if (!DecodeTransid(msg, &t)) return;
  Disposition d = LookupDisposition(t);
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
  if (txn != nullptr && !recovering) {
    // Live in-doubt refresh while the transaction is still in flight here:
    // the querier keeps waiting for the normal phase-2/abort delivery.
    Reply(msg, Status::Ok(), EncodeDisposition(Disposition::kUnknown));
    return;
  }
  Reply(msg, Status::Ok(), EncodeDisposition(DecideAtHome(t, txn)));
}

Disposition TmpProcess::DecideAtHome(const Transid& t, TxnEntry* txn) {
  if (txn == nullptr) {
    // We are the home, there is no durable completion record, and the
    // transaction is not tracked (this TMP may have been respawned fresh
    // after losing both pair members). Commit requires the home's forced
    // MAT record, so its absence proves no commit happened and never will:
    // presumed abort is safe and final.
    return Disposition::kAborted;
  }
  // A recovering participant lost its volatile phase-1 promise, so the
  // transaction can no longer commit. Abort it; CommitPointReached checks
  // the state, so a MAT write already in flight cannot commit it afterwards.
  StartAbort(t, "participant node recovering");
  return Disposition::kAborted;
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
    if (TxnEntry* txn = FindTxn(t)) ResolveIndoubt(t, txn);
  }
}

void TmpProcess::ResolveIndoubt(const Transid& t, TxnEntry* txn) {
  txn->resolve_in_flight = true;
  stats().Incr(m_.resolves_sent);
  os::CallOptions opt;
  // Diagnose a dead home within one resolve tick, not after the full
  // safe-call timeout: a blocked participant should re-ask on every tick
  // rather than stack timeouts.
  opt.timeout = kSafeCallTimeout;
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

void TmpProcess::SweepOrphanLocks() {
  for (const auto& name : config_.disc_processes) {
    os::CallOptions opt;
    opt.timeout = kSafeCallTimeout;
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
    // We are the home TMP, we do not track it, and the MAT has no record.
    // The commit protocol decides what that proves (2PC: presumed abort).
    // kUnknown keeps the suspect: the next tick reads the MAT again.
    d = DecideAtHome(t, nullptr);
    if (d != Disposition::kUnknown) ApplyOrphanDisposition(t, d);
    return;
  }
  stats().Incr(m_.resolves_sent);
  os::CallOptions opt;
  opt.timeout = kSafeCallTimeout;
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
  CheckpointSafeDelivery(kCkptSafeAdd, safe_queue_.back());
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
    opt.timeout = kSafeCallTimeout;
    Call(Tmp(dest), tag, EncodeTransidPayload(transid),
         [this, dest, tag, transid](const Status& s, const net::Message&) {
           for (auto qit = safe_queue_.begin(); qit != safe_queue_.end(); ++qit) {
             if (qit->dest == dest && qit->tag == tag &&
                 qit->transid == transid) {
               if (s.ok()) {
                 safe_queue_.erase(qit);
                 stats().Incr(m_.safe_delivered);
                 CheckpointSafeDelivery(kCkptSafeRemove,
                                        SafeDelivery{dest, tag, transid, false});
                 OnSafeDelivered(transid);
               } else {
                 qit->in_flight = false;
               }
               break;
             }
           }
           if (!safe_queue_.empty() && safe_timer_ == 0) {
             safe_timer_ = SetTimer(kSafeRetryInterval, [this]() {
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

void TmpProcess::CheckpointSeq() {
  Bytes out;
  PutFixed8(&out, kCkptSeq);
  PutFixed64(&out, next_seq_);
  SendCheckpoint(std::move(out));
}

void TmpProcess::CheckpointSafeDelivery(uint8_t type, const SafeDelivery& d) {
  Bytes out;
  PutFixed8(&out, type);
  PutFixed16(&out, d.dest);
  PutFixed32(&out, d.tag);
  PutFixed64(&out, d.transid.Pack());
  SendCheckpoint(std::move(out));
}

bool TmpProcess::GetSafeDelivery(Slice* in, SafeDelivery* d) {
  uint64_t packed;
  if (!GetFixed16(in, &d->dest) || !GetFixed32(in, &d->tag) ||
      !GetFixed64(in, &packed)) {
    return false;
  }
  d->transid = Transid::Unpack(packed);
  d->in_flight = false;
  return true;
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
      case kCkptSafeAdd:
      case kCkptSafeRemove: {
        SafeDelivery d;
        if (!GetSafeDelivery(&in, &d)) return;
        if (type == kCkptSafeAdd) {
          safe_queue_.push_back(d);
          break;
        }
        for (auto it = safe_queue_.begin(); it != safe_queue_.end(); ++it) {
          if (it->dest == d.dest && it->tag == d.tag &&
              it->transid == d.transid) {
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
    RunHomePhase1(FindTxn(transid), "takeover");
  }
  for (const auto& transid : aborting) {
    stats().Incr(m_.takeover_resumed_aborts);
    RunBackout(transid);
  }
  for (auto& entry : safe_queue_) entry.in_flight = false;
  TrySafeDeliveries();
  // Timers died with the old primary: re-arm abandonment detection.
  for (const auto& [transid, txn] : txns_) {
    if (txn.state == TxnState::kActive) ArmAutoAbort(transid);
  }
}

void TmpProcess::OnBackupAttached() {
  CheckpointSeq();
  for (const auto& [transid, txn] : txns_) {
    (void)transid;
    CheckpointTxn(txn, false);
  }
  for (const auto& entry : safe_queue_) {
    CheckpointSafeDelivery(kCkptSafeAdd, entry);
  }
}

}  // namespace encompass::tmf
