// TmpProcess: the Transaction Monitor Process — "a process-pair which is
// configured for each network node that participates in the distributed
// data base". This class is the paper's TMP, with two-phase commit:
//   * transid generation at BEGIN-TRANSACTION,
//   * the per-node transaction state table with Figure-3 transitions,
//     broadcast (accounted per alive CPU) within the node,
//   * the abbreviated single-node two-phase commit (force audit, write the
//     commit record to the Monitor Audit Trail, release locks),
//   * the distributed commit protocol: remote-transaction-begin and phase
//     one as critical-response messages, the home's MAT force as the commit
//     point, phase two and abort as safe-delivery messages retried until
//     deliverable,
//   * unilateral abort on communication loss, in-doubt lock retention after
//     an affirmative phase-1 reply, and the manual disposition override,
//   * coordination of the BACKOUTPROCESS for transaction backout.
//
// Every place where a different commit protocol must act differently is a
// protected virtual hook ("the commit-point seam"), whose body here is the
// 2PC step. PaxosTmp (tmf/paxos_tmp.h) is the one subclass; DESIGN.md
// §13.2 lists the hooks.

#ifndef ENCOMPASS_TMF_TMP_PROCESS_H_
#define ENCOMPASS_TMF_TMP_PROCESS_H_

#include <list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_trail.h"
#include "audit/group_commit.h"
#include "discprocess/disc_protocol.h"
#include "os/process_pair.h"
#include "tmf/tmf_protocol.h"
#include "tmf/transaction_state.h"

namespace encompass::tmf {

struct CommitAcceptorLog;

/// Which protocol fixes the commit point of a DISTRIBUTED transaction.
/// Single-node transactions always commit through the home MAT force —
/// they have no in-doubt window to shrink.
enum class CommitProtocol : uint8_t {
  kTwoPhase = 0,  ///< the paper's 2PC: commit point = home MAT force
  kPaxos = 1,     ///< Paxos Commit: commit point = every vote at F+1 acceptors
};

/// Static configuration of one node's TMP.
struct TmpConfig {
  std::vector<std::string> disc_processes;   ///< local DISCPROCESS names
  std::vector<std::string> audit_processes;  ///< local AUDITPROCESS names
  std::string backout_process = "$BACKOUT";  ///< local BACKOUTPROCESS name
  audit::MonitorAuditTrail* monitor_trail = nullptr;  ///< durable, per node
  /// Group commit (audit::GroupCommit's `window`): how long the first commit
  /// record of a batch waits for company before the MAT write starts; 0
  /// starts it at once.
  SimDuration mat_group_commit_window = 0;
  /// How often a participant holding in-doubt (ending, non-home)
  /// transactions queries the home TMP for their disposition. Recovers
  /// in-doubt locks after the home TMP lost its volatile state (both pair
  /// members died and the guardian respawned it fresh): the home then
  /// answers from its durable MAT — or presumed abort. 0 (default)
  /// disables the timer.
  SimDuration indoubt_resolve_interval = 0;
  /// A transaction still in "active" state this long after BEGIN is
  /// presumed abandoned (its requester died and the abort request was
  /// lost) and is automatically aborted so its locks release. 0 (default)
  /// disables the timer; production deployments should set it.
  SimDuration auto_abort_timeout = 0;
  /// Floor for the transid sequence counter of a FRESH TMP incarnation —
  /// the paper's crash-count analogue. Takeover within a pair continues the
  /// checkpointed counter, but a freshly spawned pair (after a total node
  /// failure, or both members lost on a live node) has no volatile state:
  /// without a floor it would restart at 1 and REUSE packed transids of the
  /// previous incarnation — a live one still owns its locks — corrupting
  /// every structure keyed by transid (the first-completion-wins MAT, audit
  /// classification during ROLLFORWARD). Deployments derive this from a
  /// durable per-node count of pair spawns, shifted clear of any plausible
  /// single-incarnation sequence (seq is 40 bits; incarnation << 32 leaves
  /// 4G transactions per incarnation).
  uint64_t seq_base = 0;
  /// Commit protocol for distributed transactions. kPaxos makes the
  /// deployment spawn PaxosTmp (tmf/paxos_tmp.h): votes go straight to the
  /// acceptors, the home's tally of their forced acks is the commit point,
  /// and in-doubt parties may learn the outcome from any live acceptor
  /// majority. Requires 1 to 32 `acceptor_endpoints`.
  CommitProtocol commit_protocol = CommitProtocol::kTwoPhase;
  /// Acceptor placement: (node, pair name) of every $ACCEPT.<k> pair, in
  /// tally-bit order k; the group size is 2F+1. A node may host several.
  std::vector<std::pair<net::NodeId, std::string>> acceptor_endpoints;
  /// The $ACCEPT.<k> logs on this TMP's own node, wired by the deployment.
  /// They sit in the durable NodeStorage the acceptor pairs write, so the
  /// TMP mutates them with plain calls inside events it already runs — no
  /// messages and no new events, so scheduling stays identical at every
  /// worker count.
  struct ColocatedAcceptor {
    size_t index = 0;
    CommitAcceptorLog* log = nullptr;
  };
  std::vector<ColocatedAcceptor> colocated_acceptors;
  /// Record how long non-home participants keep locks in-doubt (the
  /// `tmf.indoubt_hold_us` histogram). Off by default so deployments that
  /// don't ask for it keep byte-identical stats snapshots; the chaos
  /// campaign turns it on for both protocols to compare blocked-lock time.
  bool track_indoubt_hold = false;
  /// Record END-TRANSACTION-to-commit-point latency at the home TMP (the
  /// `tmf.commit_latency_us` histogram). Off by default for the same
  /// byte-identical-snapshot reason as `track_indoubt_hold`; the chaos
  /// campaign and BENCH_e13 turn it on to price Paxos Commit's vote tally
  /// against 2PC's MAT force.
  bool track_commit_latency = false;
};

/// The TMP pair.
class TmpProcess : public os::PairedProcess {
 public:
  explicit TmpProcess(TmpConfig config);

  std::string DebugName() const override { return pair_name() + "/tmp"; }

  /// Number of transactions currently tracked (tests/benches).
  size_t ActiveTransactionCount() const { return txns_.size(); }

  /// Participants on this node still in-doubt (kEnding) behind `home`.
  /// The chaos campaign sums this cluster-wide at the instant a crashed
  /// home returns: 2PC strands these for the whole outage, Paxos Commit
  /// resolves them against the acceptor majority while the home is down.
  size_t IndoubtParticipantsOf(net::NodeId home) const {
    size_t n = 0;
    for (const auto& [t, txn] : txns_) {
      if (!txn.is_home && txn.state == TxnState::kEnding &&
          t.home_node == home) {
        ++n;
      }
    }
    return n;
  }
  /// State of a tracked transaction; false if unknown.
  bool GetTxnState(const Transid& t, TxnState* state) const;
  /// Pending safe-delivery messages (held for unreachable nodes).
  size_t PendingSafeDeliveries() const { return safe_queue_.size(); }
  /// Snapshot of every tracked transaction (also the kTmfListTxns payload);
  /// tests and campaign diagnostics use this to name what failed to drain.
  std::vector<TxnListEntry> ListTransactions() const;

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;
  void OnCheckpoint(const Slice& delta) override;
  void OnTakeover() override;
  void OnBackupAttached() override;
  void OnNodeUp(net::NodeId peer) override;
  void OnNodeDown(net::NodeId peer) override;

  struct TxnEntry {
    Transid transid;
    TxnState state = TxnState::kActive;
    bool is_home = false;
    net::NodeId parent = 0;            ///< who introduced the transid to us
    std::set<net::NodeId> children;    ///< nodes we directly transmitted to
    // Pending client reply (END-/ABORT-TRANSACTION caller), if any.
    net::ProcessId client;
    uint64_t client_req = 0;
    uint32_t client_tag = 0;
    bool resolve_in_flight = false;    ///< outstanding in-doubt probe to home
    // When this entry entered kEnding. Non-home: feeds tmf.indoubt_hold_us
    // when the in-doubt window closes. Home: feeds tmf.commit_latency_us at
    // the commit point. Volatile: a takeover restarts the clock,
    // undercounting rather than inventing time.
    SimTime indoubt_since = 0;
  };

  // -- The commit-point seam ---------------------------------------------------
  // Each body is the paper's 2PC step (empty where 2PC has none); another
  // commit protocol overrides them (DESIGN.md §13.2).

  /// Payload of the phase-1 request to every child of `txn`.
  virtual Bytes Phase1Request(const TxnEntry& txn) const;
  /// Phase 1 here forced every local audit trail of the transaction.
  virtual void OnAuditForced(const Transid&) {}
  /// A child answered phase 1 affirmatively.
  virtual void OnChildPrepared(const Transid&, net::NodeId /*child*/) {}
  /// This participant's phase 1 succeeded; the affirmative reply follows.
  virtual void OnPrepared(TxnEntry*, const net::Message& /*phase1*/) {}
  /// The home's phase 1 succeeded: reach the commit point. 2PC forces the
  /// commit record to the MAT (group commit).
  virtual void CompleteCommit(const Transid& transid);
  /// The home's phase 1 failed: 2PC aborts.
  virtual void OnPhase1Failed(TxnEntry* txn, const char* reason);
  /// The disposition was just fixed here; the entry keeps its old state.
  virtual void OnDecided(TxnEntry*, Disposition) {}
  /// A safe delivery of the transaction was acknowledged.
  virtual void OnSafeDelivered(const Transid&) {}
  /// The home decides what its MAT cannot answer, for a resolver or for an
  /// orphaned local lock: `txn` is null if `t` is untracked, else a
  /// recovering participant asks. 2PC presumes abort.
  virtual Disposition DecideAtHome(const Transid& t, TxnEntry* txn);
  /// One resolve tick of an in-doubt participant: 2PC probes the home.
  virtual void ResolveIndoubt(const Transid& t, TxnEntry* txn);
  /// Removes the transaction from the table (checkpointed).
  virtual void DropTxn(const Transid& transid);

  // -- Core operations the hooks build on -------------------------------------
  /// The commit record of `transid` is durable: release locks, propagate
  /// phase 2, answer the client.
  void CommitPointReached(const Transid& transid);
  /// A remote decision (phase 2 or a resolved in-doubt query) says the
  /// transaction committed: record it in the MAT, release locks, propagate
  /// phase 2 to our children, drop the entry. Idempotent.
  void ApplyRemoteCommit(const Transid& transid, TxnEntry* txn);
  /// Abort decided: mark aborting, back out, release, propagate abort.
  void StartAbort(const Transid& transid, const std::string& reason);
  TxnEntry* FindTxn(const Transid& t);
  /// Forces `t`'s completion record (commit or abort) to the MAT.
  void RecordCompletion(const Transid& t, Disposition d);
  Disposition LookupDisposition(const Transid& t) const;
  /// True while a safe delivery of `transid` is still queued.
  bool SafeDeliveryPending(const Transid& transid) const;
  const TmpConfig& config() const { return config_; }

 private:
  // -- Verb handlers ----------------------------------------------------------
  void HandleBegin(const net::Message& msg);
  void HandleEnd(const net::Message& msg);
  void HandleAbort(const net::Message& msg);
  void HandleEnsureRemote(const net::Message& msg);
  void HandleRemoteBegin(const net::Message& msg);
  void HandlePhase1(const net::Message& msg);
  void HandlePhase2(const net::Message& msg);
  void HandleAbortTxn(const net::Message& msg);
  void HandleStatus(const net::Message& msg);
  void HandleForceDisposition(const net::Message& msg);
  /// kTmfResolveTxn: disposition query from a recovering node's ROLLFORWARD
  /// or a live in-doubt participant. As the home TMP this may decide the
  /// outcome (presumed abort); elsewhere it only reports the local MAT.
  void HandleResolveTxn(const net::Message& msg);

  // -- Commit machinery ---------------------------------------------------------
  /// Runs phase 1 (force local audit + critical-response to children), then
  /// `done(ok)`.
  void RunPhase1(TxnEntry* txn, std::function<void(bool)> done);
  /// The home's phase 1 (END, or resumed by a takeover): on success reach
  /// the commit point, else OnPhase1Failed(`abort_reason`).
  void RunHomePhase1(TxnEntry* txn, const char* abort_reason);
  /// Asks the BACKOUTPROCESS to undo `transid`, then FinishAbort.
  void RunBackout(const Transid& transid);
  void FinishAbort(const Transid& transid);
  /// Remembers `msg`'s sender as the END/ABORT caller to answer.
  void RecordClient(TxnEntry* txn, const net::Message& msg);
  void ReplyToClient(TxnEntry* txn, const Status& status, Bytes payload = {});
  /// Transition with Figure-3 validation, broadcast accounting, checkpoint.
  void SetState(TxnEntry* txn, TxnState to);

  // -- Safe delivery --------------------------------------------------------------
  void QueueSafeDelivery(net::NodeId dest, uint32_t tag, const Transid& transid);
  void TrySafeDeliveries();

  // -- In-doubt resolution ----------------------------------------------------------
  /// Periodic timer (indoubt_resolve_interval) re-armed on both pair
  /// members; the tick body runs on the primary only.
  void ArmIndoubtResolve();
  /// Runs ResolveIndoubt for every in-doubt (ending, non-home) transaction.
  void ResolveIndoubts();

  // -- Orphaned-lock sweep ------------------------------------------------------------
  // A DISCPROCESS can end up holding locks under a transid no TMP tracks:
  // an operation retried transparently across a participant node's crash
  // and recovery re-acquires its lock (and re-applies its mutation) at the
  // recovered DISCPROCESS *after* the transaction's abort was fully
  // processed there — the disposition notification preceded the lock, so
  // nothing ever releases it. The sweep (piggybacked on the in-doubt
  // resolve tick) asks every local DISCPROCESS who holds locks, and any
  // transid unknown to this TMP on two consecutive ticks (grace for
  // in-flight remote-begin registration) is resolved against the durable
  // record — local MAT, else the home TMP (DecideAtHome when this node is
  // the home) — and then run through the ordinary orphan commit/abort
  // pipeline so backout also undoes the re-applied images.
  void SweepOrphanLocks();
  void ResolveOrphanLock(const Transid& t);
  void ApplyOrphanDisposition(const Transid& t, Disposition d);

  // -- Helpers ----------------------------------------------------------------------
  /// Decodes the transid payload of `msg`; answers a malformed one.
  bool DecodeTransid(const net::Message& msg, Transid* t);
  TxnEntry* CreateTxn(const Transid& t, bool is_home, net::NodeId parent);
  /// Arms the abandonment timer for a freshly created transaction.
  void ArmAutoAbort(const Transid& t);
  void NotifyLocalDiscs(const Transid& t, discprocess::DiscTxnState state);
  void CheckpointTxn(const TxnEntry& txn, bool removed);
  /// Mirrors the transid sequence counter to the backup.
  void CheckpointSeq();
  net::Address Tmp(net::NodeId node) const { return net::Address(node, "$TMP"); }

  /// Interned handles for every TMP metric, registered once at attach. The
  /// transition matrix pre-registers all from->to names so the Figure-3
  /// accounting in SetState is a single indexed increment.
  struct Metrics {
    sim::MetricId state_broadcasts, txns_seen, auto_aborts, illegal_transitions;
    sim::MetricId begins, ends, voluntary_aborts, remote_begins;
    sim::MetricId phase1_received, phase1_sent, audit_forces, commits;
    sim::MetricId mat_forces;
    sim::MetricId mat_group_commit_size;  // histogram
    sim::MetricId phase2_received, orphan_phase2, orphan_aborts;
    sim::MetricId aborts_started, backouts, forced_dispositions;
    sim::MetricId unilateral_aborts, safe_queued, safe_delivered;
    sim::MetricId takeover_resumed_commits, takeover_resumed_aborts;
    sim::MetricId resolves_served, resolves_sent;
    sim::MetricId indoubt_resolved_commits, indoubt_resolved_aborts;
    sim::MetricId indoubt_blocked_on_home;
    sim::MetricId resolve_malformed_replies;
    sim::MetricId orphan_lock_commits, orphan_lock_aborts;
    sim::MetricId indoubt_hold_us;    // histogram
    sim::MetricId commit_latency_us;  // histogram
    sim::MetricId transition[kNumTxnStates][kNumTxnStates];
  };

  struct SafeDelivery {
    net::NodeId dest;
    uint32_t tag;
    Transid transid;
    bool in_flight = false;
  };
  /// Mirrors one safe-queue change (kCkptSafeAdd/kCkptSafeRemove) to the
  /// backup; GetSafeDelivery reads it back.
  void CheckpointSafeDelivery(uint8_t type, const SafeDelivery& d);
  static bool GetSafeDelivery(Slice* in, SafeDelivery* d);

  TmpConfig config_;
  Metrics m_;
  std::map<Transid, TxnEntry> txns_;
  uint64_t next_seq_ = 0;

  std::list<SafeDelivery> safe_queue_;
  uint64_t safe_timer_ = 0;

  /// Lock-holding transids unknown to this TMP at the last sweep tick
  /// (first strike); acted on if still unknown when seen again.
  std::set<Transid> orphan_suspects_;

  /// MAT commit-record writes; a takeover re-runs phase 1 for ending
  /// transactions, which re-enters CompleteCommit.
  audit::GroupCommit mat_commit_;
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_TMP_PROCESS_H_
