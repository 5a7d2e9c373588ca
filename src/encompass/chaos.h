// Chaos recovery campaign: a seeded, replayable storm of faults (generated
// by sim::FaultScheduleGenerator) over a multi-node ENCOMPASS deployment
// running a transfer workload, with a machine-checked atomicity/durability
// oracle evaluated after the cluster quiesces and every crashed node has
// recovered through ROLLFORWARD.
//
// Oracle methodology. Every transaction, at BEGIN time, registers its
// *intent*: the set of volumes it is about to write, plus a unique marker
// record it will insert on each of them alongside the real updates. The
// client then records the outcome it observed (END ok = committed, a
// definite abort = aborted, anything else — timeouts, client death with the
// node — = unknown). After quiesce the oracle inspects the durable volumes:
//   * committed  -> the marker is present on EVERY intended volume
//                   (a missing one is a lost committed update);
//   * aborted    -> the marker is present on NO volume
//                   (a present one is a resurrected aborted update);
//   * unknown    -> all-or-nothing: either every volume has the marker or
//                   none does (a mix is an atomicity violation).
// A global balance-sum conservation check rides along (transfers are
// zero-sum), catching partial redo of the real updates even when markers
// survive.

#ifndef ENCOMPASS_ENCOMPASS_CHAOS_H_
#define ENCOMPASS_ENCOMPASS_CHAOS_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "encompass/deployment.h"
#include "sim/fault_injector.h"
#include "sim/fault_schedule.h"
#include "tmf/file_system.h"

namespace encompass::app {

/// Cluster-wide atomicity/durability oracle (see file comment).
class AtomicityOracle {
 public:
  enum class Outcome { kUnknown = 0, kCommitted = 1, kAborted = 2 };

  /// One volume a transaction intends to write, and where its marker goes.
  struct IntentTarget {
    net::NodeId node;
    std::string volume;
    std::string marker_file;
  };

  struct Violation {
    uint64_t transid;
    std::string detail;
  };

  struct Intent {
    std::string marker_key;
    std::vector<IntentTarget> targets;
    Outcome outcome = Outcome::kUnknown;
    // The transfer behind the markers (for balance-drift attribution).
    int from_acct = -1, to_acct = -1;
    int64_t amount = 0;
  };

  /// Registers a transaction's intended writes (call right after BEGIN,
  /// before the first write). `marker_key` must be unique per transaction.
  void RegisterIntent(uint64_t transid, std::string marker_key,
                      std::vector<IntentTarget> targets);
  /// Records the accounts and amount the transaction moves, so a balance
  /// drift can be attributed to the transactions touching the account.
  void RecordTransfer(uint64_t transid, int from_acct, int to_acct,
                      int64_t amount);
  /// Records the client-observed outcome. Unreported transactions stay
  /// kUnknown (e.g. the client died with its node).
  void RecordOutcome(uint64_t transid, Outcome outcome);

  /// Inspects the durable volumes and returns every violated invariant.
  /// Call only after the cluster has quiesced and every node recovered.
  std::vector<Violation> Check(Deployment* deploy) const;

  size_t intents() const { return intents_.size(); }
  uint64_t count(Outcome o) const;
  const std::map<uint64_t, Intent>& all() const { return intents_; }

 private:
  // Clients on different nodes report concurrently when the campaign runs
  // on the parallel engine; readers (Check/count/all) run post-quiesce.
  mutable std::mutex mu_;
  std::map<uint64_t, Intent> intents_;
};

/// One chaos workload driver: runs sequential transfer transactions with
/// marker inserts through the real client stack (TMP verbs + FileSystem),
/// reporting intents and outcomes to the oracle. Lives on a node like any
/// application process — and dies with it on a crash, leaving its in-flight
/// transaction's outcome unknown (exactly what the oracle verifies).
struct ChaosClientConfig {
  const storage::Catalog* catalog = nullptr;
  AtomicityOracle* oracle = nullptr;
  uint64_t seed = 1;            ///< private PRNG stream for picks
  int nodes = 3;
  int accounts_per_node = 20;
  int64_t max_amount = 50;
  SimDuration think_time = Millis(25);
  SimTime stop_at = 0;          ///< start no new transaction at/after this
  /// Drive the queue lane instead of the lock lane: whole transactions
  /// (predeclared) submitted to the local $QPLAN. The queue lane is
  /// node-local, so transfers stay between accounts of the client's own
  /// node; the oracle methodology is otherwise unchanged.
  bool queue_lane = false;
};

class ChaosClient : public os::Process {
 public:
  explicit ChaosClient(ChaosClientConfig config)
      : config_(config), rng_(config.seed) {}

  std::string DebugName() const override { return "chaos-client"; }

  uint64_t started() const { return started_; }

 protected:
  void OnStart() override;

 private:
  net::Address LocalTmp() const;
  void ScheduleNext();
  void StartTxn();
  void OnBegun(const Status& s, const net::Message& reply);
  void RunOps();
  void InsertNextMarker();
  void EndTxn();
  void AbortTxn();
  void StartQueueTxn();

  ChaosClientConfig config_;
  Random rng_;
  std::unique_ptr<tmf::FileSystem> fs_;
  uint64_t started_ = 0;
  uint64_t queue_seq_ = 0;  ///< per-client sequence for synthetic oracle ids

  // In-flight transaction state (the client is strictly sequential).
  uint64_t txn_ = 0;
  int from_ = 0, to_ = 0;
  int64_t amount_ = 0, bal_from_ = 0, bal_to_ = 0;
  std::string marker_key_;
  std::vector<AtomicityOracle::IntentTarget> targets_;
  size_t marker_idx_ = 0;
};

/// Knobs of one campaign run.
struct ChaosCampaignConfig {
  uint64_t seed = 1;
  int nodes = 3;
  int accounts_per_node = 20;
  int clients_per_node = 2;
  sim::FaultScheduleConfig schedule;  ///< nodes/cpus overwritten from above
  SimDuration client_think = Millis(25);
  /// Threads forwarded to sim::Simulation: 1 runs the round loop inline,
  /// N >= 2 adds a worker pool. Same-seed results are byte-identical at
  /// every count.
  int parallel_workers = 1;
  /// Deploy every node with ExecLane::kQueue and run the clients through
  /// the $QPLAN submit path — the same storm and oracle, lock-free lane.
  bool queue_lane = false;
  /// Commit protocol of every node's TMP: the paper's 2PC (default), or
  /// Paxos Commit with `commit_replication` = 2F+1 CommitAcceptor pairs
  /// placed as `$ACCEPT.<k>` endpoints round-robined over the nodes (so the
  /// group may outnumber the nodes). Every participant votes its prepared
  /// state straight to the F+1 nearest acceptors, and the home reclaims
  /// acceptor instances once phase 2 is acknowledged.
  tmf::CommitProtocol commit_protocol = tmf::CommitProtocol::kTwoPhase;
  int commit_replication = 3;
  /// Per-transaction / per-verb network message accounting
  /// (ChaosCampaignResult::msgs_per_committed_txn). Off by default.
  bool track_messages = false;
  /// How often an in-doubt participant re-asks for its disposition. The
  /// default (2s) outlasts most storm outages, so pre-PR campaign traces are
  /// unchanged; protocol-comparison runs shrink it below the storm's heal
  /// window (0.3-1.5s) so a dead-home window is actually probed — 2PC then
  /// accrues one blocked tick per interval while Paxos Commit escalates to
  /// the acceptors at the first one.
  SimDuration indoubt_resolve_interval = Seconds(2);
};

/// Everything a test or bench asserts about one campaign run.
struct ChaosCampaignResult {
  sim::FaultSchedule schedule;
  std::string schedule_dump;        ///< for a reader; ChaosSchedule replays
  std::vector<std::string> journal; ///< fired faults + annotations
  size_t faults_fired = 0;
  size_t node_crashes = 0;
  size_t recoveries_completed = 0;
  /// In-doubt transactions at recovery: participants cluster-wide still
  /// blocked (kEnding) on a crashed home at the instant it returned, summed
  /// over every node recovery in the storm. The headline Paxos-vs-2PC
  /// number — 2PC participants wait out the whole outage, Paxos Commit
  /// participants resolve against the acceptor majority mid-outage.
  size_t indoubt_at_recovery = 0;
  bool quiesced = false;            ///< everything drained in time
  std::vector<AtomicityOracle::Violation> violations;
  long long balance_sum = 0;
  long long expected_sum = 0;
  uint64_t txns_started = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t txns_unknown = 0;
  size_t leaked_locks = 0;
  size_t leaked_txns = 0;
  size_t pending_safe = 0;
  int64_t illegal_transitions = 0;
  size_t rollforward_negotiated = 0;  ///< dispositions settled via peers
  size_t rollforward_redo_applied = 0;
  /// In-doubt dispositions that had to come from the home TMP
  /// (tmf.indoubt_resolved_*): 2PC's blocked-window casualties.
  int64_t indoubt_resolved_via_home = 0;
  /// Resolve ticks a participant spent blocked on an unreachable home while
  /// still in-doubt (tmf.indoubt_blocked_on_home). 2PC accrues one per tick
  /// for the whole dead-home window; Paxos Commit participants never probe
  /// the home — they escalate straight to the acceptors.
  int64_t indoubt_blocked_on_home = 0;
  /// In-doubt dispositions learned from an acceptor majority while the
  /// home was unreachable (participants + recovering nodes; paxos only).
  int64_t indoubt_resolved_via_acceptors = 0;
  /// Blocked-lock time: how long non-home participants held locks in-doubt
  /// (tmf.indoubt_hold_us), milliseconds.
  double indoubt_hold_p99_ms = 0;
  double indoubt_hold_max_ms = 0;
  /// END-TRANSACTION to commit point at the home TMP
  /// (tmf.commit_latency_us), milliseconds. Prices the protocols against
  /// each other: paxos commits on its vote-ack tally, 2PC on the MAT force.
  double commit_latency_p50_ms = 0;
  double commit_latency_p99_ms = 0;
  /// Cross-node messages per committed transaction (config.track_messages
  /// only): total transid-attributed network sends / txns_committed. Paxos
  /// Commit pays for its votes and acks here, except the co-located ones,
  /// which never cross the network.
  double msgs_per_committed_txn = 0;
  uint64_t tracked_messages = 0;  ///< transid-attributed cross-node sends
  /// Per-verb breakdown of every cross-node send (track_messages only).
  std::map<uint32_t, uint64_t> msgs_per_tag;
  /// Acceptor-log occupancy (paxos only): the largest instance count any
  /// single acceptor log ever held, and the instances still resident after
  /// the drain. GC keeps both bounded; final should be ~0 on a quiesced run.
  size_t acceptor_log_peak = 0;
  size_t acceptor_log_final = 0;
  /// Replayed phase-2a votes absorbed idempotently (no second force).
  int64_t acceptor_duplicate_votes = 0;
};

/// One chaos campaign. Construction builds the cluster: the deployment and
/// its seeded accounts. Run() settles it, archives the volumes, starts the
/// clients and binds the schedule to cluster actions at that settled
/// instant (a client arms its first think timer relative to now), then runs
/// the storm, drains, and takes the census. Every advance of simulated time
/// goes through Run's `advance`, so a test can drive a whole storm through
/// the Step() reference and byte-compare stats() with a round-loop run.
class ChaosCampaign {
 public:
  /// Advances the simulation to an absolute deadline.
  using Advance = std::function<void(sim::Simulation&, SimTime)>;

  ChaosCampaign(const ChaosCampaignConfig& config,
                const sim::FaultSchedule& schedule);
  // Fault actions and recovery callbacks hold `this`.
  ChaosCampaign(const ChaosCampaign&) = delete;
  ChaosCampaign& operator=(const ChaosCampaign&) = delete;

  /// Settles, runs the storm, drains, and takes the census; every advance
  /// of simulated time goes through `advance`. Call once.
  ChaosCampaignResult Run(
      const Advance& advance = [](sim::Simulation& sim, SimTime deadline) {
        sim.RunUntil(deadline);
      });

  const sim::Stats& stats() const { return sim_.GetStats(); }

 private:
  storage::Volume* DataVolume(net::NodeId n);
  void SpawnClients(net::NodeId n);
  void BindFaults();
  /// True (after journaling "suppressed <what>: node crashed") when node
  /// `n` is down, so the fault must not touch it.
  bool Suppressed(net::NodeId n, const std::string& what);
  /// Cuts (or restores) every link across a partition mask, skipping
  /// crashed endpoints.
  void SetPartition(uint32_t mask, bool up);
  void Recover(net::NodeId node);
  bool Quiet();
  void Census();
  void JournalLeftovers();
  void JournalDrift();

  const ChaosCampaignConfig config_;
  const SimTime stop_at_;
  sim::Simulation sim_;
  Deployment deploy_;
  AtomicityOracle oracle_;
  sim::FaultInjector injector_;
  ChaosCampaignResult res_;
  // Fault actions run on the global loop (serial phase of the parallel
  // engine), but RecoverNode's done-callback fires on the recovering node's
  // own loop — two nodes finishing recovery in the same round would race on
  // res_'s recovery tallies and the state below without this mutex.
  std::mutex campaign_mu_;
  std::set<net::NodeId> crashed_;
  int recovering_ = 0;
  std::vector<uint64_t> client_gen_;  ///< per node: client respawn count
};

/// The fault schedule RunChaosCampaign generates for `config.seed`.
sim::FaultSchedule ChaosSchedule(const ChaosCampaignConfig& config);

/// Generates the fault schedule for `config.seed` and runs the campaign.
ChaosCampaignResult RunChaosCampaign(const ChaosCampaignConfig& config);

/// Runs the campaign against an explicit schedule. With ChaosSchedule of
/// the same config (what RunChaosCampaign runs), the run is bit-identical.
ChaosCampaignResult ReplayChaosCampaign(const ChaosCampaignConfig& config,
                                        const sim::FaultSchedule& schedule);

}  // namespace encompass::app

#endif  // ENCOMPASS_ENCOMPASS_CHAOS_H_
