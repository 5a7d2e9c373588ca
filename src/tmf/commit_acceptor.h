// CommitAcceptor: the acceptor half of Paxos Commit (Gray & Lamport,
// "Consensus on Transaction Commit"), in the paper's F+1-message topology.
// Every participant of a distributed transaction runs its own consensus
// instance, keyed (transid, voter node): participants send one-way
// prepared-votes straight to the acceptors (the vote to a co-located
// acceptor never crosses the network), acceptors ack forced votes directly
// to the home, and the transaction commits when every voter's instance
// chose Prepared. Recovery proposers (in-doubt participants, ROLLFORWARD, a
// respawned home) run full prepare+accept rounds at ballots
// (attempt >= 1, proposer), adopting the value of the highest accepted
// ballot a majority reveals and defaulting to abort when none was accepted,
// so any live majority can settle an in-doubt transaction without waiting
// for the home to return. Decided instances are garbage-collected once
// phase 2 landed everywhere; a bounded ring of sealed final dispositions
// answers resolvers that arrive late.

#ifndef ENCOMPASS_TMF_COMMIT_ACCEPTOR_H_
#define ENCOMPASS_TMF_COMMIT_ACCEPTOR_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "os/process_pair.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

/// Durable acceptor state of one consensus instance, keyed per
/// (transaction, voter node).
struct CommitAcceptorEntry {
  uint32_t promised = 0;         ///< highest ballot promised
  uint32_t accepted_ballot = 0;  ///< ballot of the accepted value (0 = none)
  bool has_value = false;
  Disposition value = Disposition::kUnknown;
  /// Home-voter instance only: the participant set the home's vote carried (what a resolver must settle before declaring commit).
  std::vector<net::NodeId> participants;
  /// When the instance was created (drives the orphan sweep).
  SimTime born = 0;
};

/// What CommitAcceptorLog::Accept did with a phase-2a value.
enum class AcceptOutcome : uint8_t {
  kSealed,     ///< already decided and reclaimed: no instance created
  kDuplicate,  ///< replay of the accepted value: the first force stands
  kAccepted,   ///< newly accepted: force before acknowledging
  kRejected,   ///< a higher ballot was promised (a usurping proposer)
};

/// The acceptor's forced log. It lives in NodeStorage next to the MAT, so it
/// survives process takeover and total node crashes; every granting mutation
/// is charged a force latency before the reply leaves the acceptor.
struct CommitAcceptorLog {
  /// Live instances, keyed (packed transid, voter node).
  std::map<std::pair<uint64_t, uint16_t>, CommitAcceptorEntry> entries;

  /// Final transaction dispositions of reclaimed instances, bounded FIFO:
  /// a resolver of a GC'd transaction gets the sealed decision instead of
  /// (unsoundly) re-running consensus against an empty instance.
  std::map<uint64_t, Disposition> sealed;
  std::deque<uint64_t> sealed_order;
  size_t sealed_cap = 4096;

  /// High-water mark of live instances (the boundedness headline).
  size_t peak_instances = 0;

  CommitAcceptorEntry& At(const Transid& t, uint16_t voter) {
    CommitAcceptorEntry& e = entries[{t.Pack(), voter}];
    if (entries.size() > peak_instances) peak_instances = entries.size();
    return e;
  }

  const Disposition* SealedValue(uint64_t packed) const {
    auto it = sealed.find(packed);
    return it == sealed.end() ? nullptr : &it->second;
  }

  /// Phase 2b on instance (t, voter), the one accept rule: sealed? →
  /// create the instance (`born` = now) → same ballot and value replayed? →
  /// ballot below the promise? → else accept, a non-empty participant set
  /// included.
  AcceptOutcome Accept(const Transid& t, uint16_t voter, uint32_t ballot,
                       Disposition value,
                       const std::vector<net::NodeId>& participants,
                       SimTime now);

  /// Drops every instance of `packed` and records its final disposition.
  void Seal(uint64_t packed, Disposition d) {
    auto it = entries.lower_bound({packed, 0});
    while (it != entries.end() && it->first.first == packed) {
      it = entries.erase(it);
    }
    if (sealed.emplace(packed, d).second) {
      sealed_order.push_back(packed);
      while (sealed_order.size() > sealed_cap) {
        sealed.erase(sealed_order.front());
        sealed_order.pop_front();
      }
    }
  }
};

struct CommitAcceptorConfig {
  CommitAcceptorLog* log = nullptr;
  /// Index k of this $ACCEPT.<k> pair within the acceptor group — the bit
  /// this acceptor sets in the home's vote tally.
  uint8_t index = 0;
};

/// The `$ACCEPT.<k>` process pairs of a paxos deployment, placed by the
/// TMP's `acceptor_endpoints` list (a node may host several, so the group
/// may outnumber the nodes). Every granting reply waits for a forced log
/// write (audit::kDiscForceLatency, the durability the commit point leans
/// on); rejections touch no state and reply immediately. The primary runs
/// an orphan sweep every kSweepInterval that asks the home TMP for the
/// disposition of instances older than kSweepAge (reclaims whose broadcast
/// this acceptor missed).
class CommitAcceptor : public os::PairedProcess {
 public:
  explicit CommitAcceptor(CommitAcceptorConfig config) : config_(config) {}

  std::string DebugName() const override { return pair_name() + "/acceptor"; }

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;

 private:
  void HandlePrepare(const net::Message& msg);
  void HandleAccept(const net::Message& msg);
  void HandleVote(const net::Message& msg);
  void HandleReclaim(const net::Message& msg);
  void ReplyForced(const net::Message& msg, Bytes payload);
  /// Adds (t, voter) to the per-transaction ack bundle and arms the
  /// same-instant flush: votes whose forces complete together reach the
  /// home as one kTmfPaxosVoteAck.
  void QueueVoteAck(const Transid& t, uint16_t voter);
  void FlushVoteAcks();
  void ArmSweep();
  void Sweep();

  CommitAcceptorConfig config_;
  sim::MetricId m_prepares_, m_accepts_, m_rejections_;
  sim::MetricId m_votes_, m_duplicate_votes_, m_reclaims_, m_sealed_answers_;
  sim::MetricId m_log_instances_;
  std::map<uint64_t, std::set<uint16_t>> pending_acks_;
  bool ack_flush_armed_ = false;
  std::set<uint64_t> sweep_in_flight_;
};

/// In-doubt resolution against the acceptors, shared by in-doubt
/// participants, ROLLFORWARD, a respawned home, and the home's own stall
/// fallback. `endpoints` is the acceptor group: the (node, pair name) of
/// every `$ACCEPT.<k>` pair, in tally-index order. Runs an abort-proposing
/// round at ballot
/// MakePaxosBallot(attempt, proc's node) on the home-voter instance first —
/// a chosen Prepared there reveals the participant set, whose voter
/// instances are then settled in parallel (all Prepared => committed, any
/// Aborted => aborted, any failed round => kUnknown: majority unreachable or
/// outpaced, the caller retries at a higher attempt). A sealed answer from
/// any acceptor short-circuits everything with the final disposition.
void ResolvePaxosOutcome(
    os::Process* proc,
    const std::vector<std::pair<net::NodeId, std::string>>& endpoints,
    const Transid& t, uint32_t attempt, std::function<void(Disposition)> done);

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_COMMIT_ACCEPTOR_H_
