// PaxosTmp: the TMP under Gray & Lamport's Paxos Commit ("Consensus on
// Transaction Commit", PAPERS.md) in its F+1-message form. It overrides
// TmpProcess's commit-point seam and nothing else. A distributed home
// transaction commits once every voter (the home and each child) has its
// prepared vote forced at F+1 of the 2F+1 `$ACCEPT.<k>` acceptors:
//   * the home's attempt-0 ballot rides phase 1; each voter's vote leaves
//     when it is prepared, and a child's affirmative phase-1 reply doubles
//     as its vote at the home's co-located acceptors;
//   * the home's tally of forced-vote acks is the commit point; a stalled
//     tally or a failed phase 1 runs abort-proposing fallback rounds
//     instead of a unilateral abort;
//   * in-doubt participants and a respawned home settle the outcome at any
//     acceptor majority instead of waiting for the home;
//   * decided instances are reclaimed once phase 2 (or the abort) drained.
// Single-node transactions fall through to the base MAT force.

#ifndef ENCOMPASS_TMF_PAXOS_TMP_H_
#define ENCOMPASS_TMF_PAXOS_TMP_H_

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "tmf/commit_acceptor.h"
#include "tmf/tmp_process.h"

namespace encompass::tmf {

class PaxosTmp : public TmpProcess {
 public:
  explicit PaxosTmp(TmpConfig config) : TmpProcess(std::move(config)) {}

 protected:
  void OnPairAttach() override;
  /// Adds the one-way kTmfPaxosVoteAck to the core's verbs.
  void OnRequest(const net::Message& msg) override;

  // The commit-point seam (see TmpProcess).
  Bytes Phase1Request(const TxnEntry& txn) const override;
  void OnAuditForced(const Transid& transid) override;
  void OnChildPrepared(const Transid& transid, net::NodeId child) override;
  void OnPrepared(TxnEntry* txn, const net::Message& phase1) override;
  void CompleteCommit(const Transid& transid) override;
  void OnPhase1Failed(TxnEntry* txn, const char* reason) override;
  void OnDecided(TxnEntry* txn, Disposition d) override;
  void OnSafeDelivered(const Transid& transid) override;
  Disposition DecideAtHome(const Transid& t, TxnEntry* txn) override;
  void ResolveIndoubt(const Transid& t, TxnEntry* txn) override;
  void DropTxn(const Transid& transid) override;

 private:
  /// Volatile per-transaction state, never checkpointed. It drops with the
  /// table entry, so a takeover or an orphan re-creation starts fresh.
  struct Round {
    uint32_t attempt = 0;   ///< next recovery/fallback ballot attempt
    bool in_flight = false;  ///< a resolve or fallback round is running
    /// Home only: per voter, the acceptor indices whose acks arrived.
    std::map<uint16_t, uint32_t> vote_acks;
    uint64_t fallback_timer = 0;  ///< home only: fallback armed
  };

  /// The one per-transaction branch: a home transaction with children.
  static bool Distributed(const TxnEntry& txn) {
    return txn.is_home && !txn.children.empty();
  }
  /// `t`'s entry if it is Distributed and in phase 1 (ending), else null.
  TxnEntry* EndingDistributed(const Transid& t);

  void HandleVoteAck(const net::Message& msg);
  /// Sends this node's prepared-vote for `txn` one-way to its targets.
  void CastVote(TxnEntry* txn, uint32_t ballot);
  /// The F+1 acceptor indices `voter`'s vote goes to: co-located pairs
  /// first, then the home node's, then `prefer` nodes', then index order.
  /// Deterministic, so the home can recompute any child's targets.
  std::vector<size_t> VoteTargetIndices(
      net::NodeId voter, net::NodeId home,
      const std::set<net::NodeId>& prefer = {}) const;
  /// Commit point check: every voter forced at F+1 acceptors.
  void CheckVoteTally(TxnEntry* txn);
  /// Stall recovery at the home: RunRound, retried with backoff.
  void StartFallback(const Transid& transid);
  /// Unless one is in flight, runs one abort-proposing round at a usurping
  /// ballot on every voter instance of `transid` (ResolvePaxosOutcome);
  /// `settle` gets the chosen value if the transaction is still ending.
  void RunRound(const Transid& transid,
                std::function<void(TxnEntry*, Round*, Disposition)> settle);
  /// Respawned home: settles an untracked `t` at the acceptors and seals
  /// the chosen outcome into the MAT.
  void SealDecision(const Transid& t);
  /// Bit k set: endpoint k may hold a voter instance of `txn` and does not
  /// sit on a participant node (those seal themselves in OnDecided).
  uint32_t ReclaimMaskFor(const TxnEntry& txn) const;
  void FlushReclaims();

  struct Metrics {
    sim::MetricId rounds, commit_points, fast_commit_points, adopted_aborts;
    sim::MetricId resolved_commits, resolved_aborts, seals, votes_cast;
    sim::MetricId fallbacks, reclaims_sent, bad_vote_acks;
  };
  Metrics pm_;
  std::map<Transid, Round> rounds_;

  /// SealDecision state of untracked transids: the next ballot attempt (a
  /// re-seal at the same ballot would be rejected) and the round in flight.
  struct Seal {
    uint32_t attempt = 1;
    bool in_flight = false;
  };
  std::map<Transid, Seal> seals_;

  /// Acceptor-log GC at the home (volatile: the acceptors' orphan sweep
  /// catches a lost reclaim): decided transactions waiting for their safe
  /// deliveries to drain, then the batch for the next reclaim flush.
  struct ReclaimEntry {
    Disposition disposition;
    uint32_t endpoint_mask;
  };
  std::map<uint64_t, ReclaimEntry> reclaim_waiting_;
  std::vector<std::pair<uint64_t, ReclaimEntry>> reclaim_pending_;
  bool reclaim_flush_armed_ = false;
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_PAXOS_TMP_H_
