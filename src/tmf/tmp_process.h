// TmpProcess: the Transaction Monitor Process — "a process-pair which is
// configured for each network node that participates in the distributed
// data base". It implements:
//   * transid generation at BEGIN-TRANSACTION,
//   * the per-node transaction state table with Figure-3 transitions,
//     broadcast (accounted per alive CPU) within the node,
//   * the abbreviated single-node two-phase commit (force audit, write the
//     commit record to the Monitor Audit Trail, release locks),
//   * the distributed commit protocol: remote-transaction-begin and phase
//     one as critical-response messages; phase two and abort as
//     safe-delivery messages retried until deliverable,
//   * unilateral abort on communication loss, in-doubt lock retention after
//     an affirmative phase-1 reply, and the manual disposition override,
//   * coordination of the BACKOUTPROCESS for transaction backout.

#ifndef ENCOMPASS_TMF_TMP_PROCESS_H_
#define ENCOMPASS_TMF_TMP_PROCESS_H_

#include <list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_trail.h"
#include "os/process_pair.h"
#include "tmf/commit_acceptor.h"
#include "tmf/tmf_protocol.h"
#include "tmf/transaction_state.h"

namespace encompass::tmf {

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
  SimDuration mat_force_latency = Millis(8);   ///< commit-record force cost
  /// Group commit for the commit-point force: how long the first committer
  /// of a batch waits for company before the physical MAT write starts.
  /// 0 (default) starts immediately; commits arriving while a write is in
  /// flight still coalesce into the next write either way.
  SimDuration mat_group_commit_window = 0;
  SimDuration phase1_timeout = Seconds(2);     ///< critical-response deadline
  SimDuration force_timeout = Seconds(2);      ///< local audit force deadline
  SimDuration safe_retry_interval = Millis(500);  ///< safe-delivery pacing
  /// Per-attempt deadline of one safe-delivery call (the queue as a whole
  /// retries forever; this only bounds how long a single attempt waits).
  SimDuration safe_call_timeout = Seconds(2);
  SimDuration backout_timeout = Seconds(5);
  /// Per-attempt deadline and retry budget for the retried DISCPROCESS
  /// state-change notifications (phase 2 / abort lock release).
  SimDuration disc_notify_timeout = Millis(500);
  int disc_notify_retries = 6;
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
  /// checkpointed counter, but after a total node failure the respawned TMP
  /// has no volatile state: without a floor it would restart at 1 and REUSE
  /// packed transids of the previous incarnation, corrupting every durable
  /// structure keyed by transid (the first-completion-wins MAT, audit
  /// classification during ROLLFORWARD). Deployments derive this from a
  /// durable per-node restart count, shifted clear of any plausible
  /// single-incarnation sequence (seq is 40 bits; incarnation << 32 leaves
  /// 4G transactions per incarnation).
  uint64_t seq_base = 0;
  /// Commit protocol for distributed transactions. Under kPaxos (Gray &
  /// Lamport's F+1-message Paxos Commit) every participant sends its
  /// phase-2a prepared-vote straight to the acceptors (a co-located
  /// acceptor makes that a local forced write, not a network message) and
  /// the home's commit point becomes its tally of forced-vote acks — one
  /// WAN delay after phase 1 instead of the MAT force. In-doubt
  /// participants and recovering nodes may then learn the outcome from any
  /// live acceptor majority instead of waiting for the home to return.
  /// Requires `acceptor_endpoints`.
  CommitProtocol commit_protocol = CommitProtocol::kTwoPhase;
  SimDuration paxos_round_timeout = Seconds(2);    ///< per acceptor call
  SimDuration paxos_retry_interval = Millis(200);  ///< pacing between rounds
  /// Acceptor placement: (node, pair name) of every $ACCEPT.<k> pair; the
  /// group size is 2F+1 = acceptor_endpoints.size(). A node may host
  /// several pairs, so the group may outnumber the nodes. Order defines
  /// each pair's tally bit (index k).
  std::vector<std::pair<net::NodeId, std::string>> acceptor_endpoints;
  /// The $ACCEPT.<k> logs that live on this TMP's own node,
  /// wired by the deployment (`index` is the pair's tally bit k). The logs
  /// sit in the same durable NodeStorage the acceptor pairs write, so the
  /// TMP can mutate them directly — deposit a child's phase-1 vote
  /// (DepositChildVote) or seal decided instances the moment the
  /// disposition lands locally (ReclaimLocalAcceptors) — as plain function
  /// calls inside events it already runs: no messages, no new events, and
  /// therefore byte-identical scheduling at every worker count by
  /// construction.
  struct ColocatedAcceptor {
    size_t index = 0;
    CommitAcceptorLog* log = nullptr;
  };
  std::vector<ColocatedAcceptor> colocated_acceptors;
  /// How long the home batches decided-instance reclamations before
  /// flushing kTmfPaxosReclaim to the acceptors that actually hold voter
  /// instances. Longer batching means fewer reclaim messages
  /// at the price of a higher acceptor-log peak.
  SimDuration paxos_reclaim_interval = Millis(250);
  /// Orphan-sweep cadence handed to the CommitAcceptor pairs by the
  /// deployment (0 disables the sweep).
  SimDuration acceptor_sweep_interval = Seconds(1);
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
  explicit TmpProcess(TmpConfig config) : config_(std::move(config)) {}

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

 private:
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
    // Commit coordination (primary-only, not checkpointed: a takeover
    // restarts the phase).
    int pending_acks = 0;
    bool phase_failed = false;
    // Paxos Commit coordination (volatile, like pending_acks).
    uint32_t paxos_attempt = 0;        ///< next ballot attempt to run
    bool paxos_round_in_flight = false;
    bool resolve_in_flight = false;    ///< outstanding in-doubt probe to home
    uint32_t home_ballot = 0;  ///< ballot piggybacked on phase 1 (non-home)
    /// Home only: per-voter bitmask of acceptor indices whose forced-vote
    /// acks arrived. Volatile like pending_acks — a takeover
    /// re-runs phase 1, votes replay idempotently, acks re-arrive.
    std::map<uint16_t, uint32_t> vote_acks;
    /// Home only: the fallback round is armed (phase 1 finished but the
    /// ack tally had not fired yet).
    uint64_t paxos_fallback_timer = 0;
    // When this entry entered kEnding. Non-home: feeds tmf.indoubt_hold_us
    // when the in-doubt window closes. Home: feeds tmf.commit_latency_us at
    // the commit point. Volatile: a takeover restarts the clock,
    // undercounting rather than inventing time.
    SimTime indoubt_since = 0;
  };

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
  /// Commit decided: write the MAT record, release locks, propagate phase 2.
  /// Concurrent committers share one physical MAT write (group commit).
  void CompleteCommit(const Transid& transid);
  /// Starts the physical MAT write for every transaction in mat_waiting_.
  void StartMatWrite();
  /// Schedules the next MAT write cycle (honouring the batching window).
  void ArmMatWrite();
  /// The commit record of `transid` is durable: release locks, propagate
  /// phase 2, answer the client.
  void CommitPointReached(const Transid& transid);
  /// A remote decision (phase 2 or a resolved in-doubt query) says the
  /// transaction committed: record it in the MAT, release locks, propagate
  /// phase 2 to our children, drop the entry. Idempotent.
  void ApplyRemoteCommit(const Transid& transid, TxnEntry* txn);
  /// Abort decided: mark aborting, back out, release, propagate abort.
  void StartAbort(const Transid& transid, const std::string& reason);
  void FinishAbort(const Transid& transid);
  void ReplyToClient(TxnEntry* txn, const Status& status, Bytes payload = {});
  void DropTxn(const Transid& transid);
  /// Transition with Figure-3 validation, broadcast accounting, checkpoint.
  void SetState(TxnEntry* txn, TxnState to);

  // -- Safe delivery --------------------------------------------------------------
  void QueueSafeDelivery(net::NodeId dest, uint32_t tag, const Transid& transid);
  void TrySafeDeliveries();

  // -- In-doubt resolution ----------------------------------------------------------
  /// Periodic timer (indoubt_resolve_interval) re-armed on both pair
  /// members; the tick body runs on the primary only.
  void ArmIndoubtResolve();
  /// Queries the home TMP of every in-doubt (ending, non-home) transaction.
  void ResolveIndoubts();

  // -- Paxos Commit -----------------------------------------------------------------
  /// kPaxos with an acceptor group configured.
  bool PaxosDeployed() const;
  /// True when `txn` commits through Paxos Commit (votes go straight to the
  /// acceptors; the commit point is the home's ack tally): paxos
  /// deployments run distributed home transactions only.
  bool PaxosEnabledFor(const TxnEntry& txn) const;
  PaxosRoundConfig PaxosConfig() const;
  /// Participant side: learn (or fix, by proposing abort at a usurping
  /// ballot) the outcome from the acceptors instead of the home.
  /// Escalates a stuck in-doubt participant to the acceptor group, but only
  /// after it has been in-doubt for a full resolve interval — younger
  /// entries are healthy commits mid-flight that a usurping ballot would
  /// needlessly abort.
  void MaybePaxosEscalate(const Transid& transid, TxnEntry* txn);
  void StartPaxosResolve(const Transid& transid);
  /// Respawned-home side: this TMP no longer tracks `t` and its MAT has no
  /// record, but under paxos the decision may live at the acceptors. Runs
  /// an abort-proposing round and seals whatever is chosen into the MAT, so
  /// presumed abort never contradicts a majority-accepted commit.
  void SealDecision(const Transid& t);
  /// Sends this node's prepared-vote for `txn` one-way to its vote
  /// targets. Home: ballot (0, home) carrying the direct-participant set.
  /// Child: the home ballot that rode phase 1, skipping home-node targets
  /// — the home deposits the child's vote there itself (see
  /// DepositChildVote), so the child's affirmative phase-1 reply is the
  /// only cross-node message its vote costs.
  void CastVote(TxnEntry* txn);
  /// A child's affirmative phase-1 reply IS its prepared-vote: the vote's
  /// bytes are deterministic in (transid, home ballot, voter), so the home
  /// writes it straight into its co-located acceptor logs (the shared
  /// durable NodeStorage — the same forced write HandleVote performs,
  /// with the tally credit delayed by the force latency) instead of the
  /// child shipping a second cross-node message.
  void DepositChildVote(const Transid& transid, net::NodeId child);
  /// The F+1 acceptors `voter`'s vote goes to, as acceptor_endpoints
  /// indices: the voter's co-located pairs first (a local forced write,
  /// not a network message), the home node's pairs next (their acks are
  /// then home-local), then pairs on `prefer` nodes (the home passes its
  /// participant set so its spill-over copies land where reclaims are
  /// free), the rest in index order. Any F+1 subset intersects every
  /// resolver's F+1 prepare quorum. Deterministic in the arguments, so
  /// the home can recompute any child's target set for the reclaim mask.
  std::vector<size_t> VoteTargetIndices(
      net::NodeId voter, net::NodeId home,
      const std::set<net::NodeId>& prefer) const;
  /// Bitmask (bit k = endpoint k) of every acceptor that may hold a voter
  /// instance for `txn` and is NOT covered by a participant node's local
  /// reclaim (see ReclaimLocalAcceptors): the union of VoteTargetIndices
  /// over {home} ∪ children — widened to all endpoints once a fallback
  /// round ran (its accept fan-out touches the whole group) — minus every
  /// child-node bit.
  uint32_t ReclaimMaskFor(const TxnEntry& txn) const;
  /// Participant-side GC: when the final disposition lands here (phase 2,
  /// an abort, or an acceptor-resolved outcome) every co-located acceptor
  /// log is sealed in place — a direct mutation of the shared durable
  /// store, zero messages and zero events.
  void ReclaimLocalAcceptors(const Transid& transid, Disposition d);
  void HandlePaxosVoteAck(const net::Message& msg);
  /// Commit point check: every voter ({home} ∪ children) durably accepted
  /// at F+1 acceptors.
  void CheckVoteTally(TxnEntry* txn);
  /// Arms the stall fallback once phase 1 finished but acks are missing.
  void ArmPaxosFallbackTimer(const Transid& transid);
  /// Stall recovery at the home: full abort-proposing rounds at a
  /// usurping ballot on every voter instance (all Prepared => commit, any
  /// Aborted => abort, else retry).
  void StartPaxosFallback(const Transid& transid);
  /// GC: queues a decided transaction's instances for reclamation once its
  /// phase-2 / abort safe-deliveries all drained.
  void MaybeQueueReclaim(const Transid& transid);
  void FlushReclaims();

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
  // record — local MAT, else the home TMP — and then run through the
  // ordinary orphan commit/abort pipeline so backout also undoes the
  // re-applied images.
  void SweepOrphanLocks();
  void ResolveOrphanLock(const Transid& t);
  void ApplyOrphanDisposition(const Transid& t, Disposition d);

  // -- Helpers ----------------------------------------------------------------------
  TxnEntry* FindTxn(const Transid& t);
  TxnEntry* CreateTxn(const Transid& t, bool is_home, net::NodeId parent);
  /// Arms the abandonment timer for a freshly created transaction.
  void ArmAutoAbort(const Transid& t);
  void NotifyLocalDiscs(const Transid& t, uint8_t disc_state);
  Disposition LookupDisposition(const Transid& t) const;
  void CheckpointTxn(const TxnEntry& txn, bool removed);
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
    sim::MetricId paxos_rounds, paxos_commit_points, paxos_adopted_aborts;
    sim::MetricId paxos_resolved_commits, paxos_resolved_aborts, paxos_seals;
    sim::MetricId paxos_votes_cast, paxos_fast_commit_points, paxos_fallbacks;
    sim::MetricId paxos_reclaims_sent;
    sim::MetricId indoubt_hold_us;    // histogram
    sim::MetricId commit_latency_us;  // histogram
    sim::MetricId transition[kNumTxnStates][kNumTxnStates];
  };

  TmpConfig config_;
  Metrics m_;
  std::map<Transid, TxnEntry> txns_;
  uint64_t next_seq_ = 0;

  struct SafeDelivery {
    net::NodeId dest;
    uint32_t tag;
    Transid transid;
    bool in_flight = false;
  };
  std::list<SafeDelivery> safe_queue_;
  uint64_t safe_timer_ = 0;

  /// Lock-holding transids unknown to this TMP at the last sweep tick
  /// (first strike); acted on if still unknown when seen again.
  std::set<Transid> orphan_suspects_;

  /// Untracked transids with a seal round in flight, and the next ballot
  /// attempt each should use (a re-seal at an unchanged ballot would be
  /// rejected by its own earlier promise).
  std::set<Transid> paxos_sealing_;
  std::map<Transid, uint32_t> paxos_seal_attempt_;

  /// Acceptor-log GC (home only, volatile: a lost reclaim is caught by the
  /// acceptors' orphan sweep). Decided transactions waiting for their
  /// safe-delivery drain, then the batched per-acceptor reclaim flush —
  /// each entry carries the ReclaimMaskFor() bitmask of acceptors that
  /// may hold its instances, so untouched acceptors get no message.
  struct ReclaimEntry {
    Disposition disposition;
    uint32_t endpoint_mask;
  };
  std::map<uint64_t, ReclaimEntry> reclaim_waiting_;
  std::vector<std::pair<uint64_t, ReclaimEntry>> reclaim_pending_;
  bool reclaim_flush_armed_ = false;

  /// One committer waiting for its commit record to reach the MAT.
  struct MatWaiter {
    Transid transid;
    sim::TraceContext trace;  ///< finish the commit under its own span
  };
  // Group-commit state (primary-only, volatile: a takeover re-runs phase 1
  // for ending transactions, which re-enters CompleteCommit).
  std::vector<MatWaiter> mat_waiting_;
  bool mat_gathering_ = false;        ///< window timer armed
  bool mat_write_in_flight_ = false;  ///< mat_force_latency timer armed
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_TMP_PROCESS_H_
