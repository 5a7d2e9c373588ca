// Paxos Commit and in-doubt negotiation tests.
//
// With `commit_protocol = kPaxos` every participant of a distributed
// transaction votes its prepared state straight to F+1 of 2F+1
// CommitAcceptor pairs, the commit point becomes the home's tally of
// forced-vote acks instead of the home MAT force, and any in-doubt party
// (participant, ROLLFORWARD, respawned home) can settle against a live
// acceptor majority while the home is down — the classic 2PC blocked
// window. These tests drive the protocol through the same storm schedules,
// worker sweeps, and hand-built crash windows the 2PC campaign uses, plus
// regression tests for the negotiation bugfixes: concurrent
// (non-head-of-line) recovery negotiation, capped backoff with a high-water
// attempts gauge, and counted (not swallowed) malformed resolve-transaction
// replies.

#include <gtest/gtest.h>

#include <string>

#include "encompass/chaos.h"
#include "tmf/commit_acceptor.h"
#include "tmf/recovery.h"
#include "tmf/tmf_protocol.h"
#include "step_reference.h"
#include "storm_test_util.h"

namespace encompass::app {
namespace {

using testutil::ExpectSameStormAsStepReference;
using testutil::ExpectStormSurvives;
using testutil::ExpectSurvived;
using testutil::PaxosStormConfig;
using testutil::Rig;
using testutil::TestClient;

constexpr char kFailingSeed[] = "paxos_failing_seed_";

// Two-phase commit stays the default, byte for byte: a deployment that
// never mentions Paxos must spawn no acceptors, vote nothing, and record
// nothing new (the pdes_oracle golden pins the full trace+stats snapshot of
// that path against the pre-Paxos tree).
TEST(PaxosDefaultsTest, TwoPhaseRemainsTheDefault) {
  tmf::TmpConfig cfg;
  EXPECT_EQ(cfg.commit_protocol, tmf::CommitProtocol::kTwoPhase);
  EXPECT_FALSE(cfg.track_indoubt_hold);
  // No acceptor placement and no message accounting until asked for.
  EXPECT_TRUE(cfg.acceptor_endpoints.empty());
  EXPECT_FALSE(net::NetworkConfig{}.track_messages);

  tmf::NodeRecoveryConfig rcfg;
  EXPECT_EQ(tmf::kNegotiationBackoffCap, Seconds(8));
  EXPECT_TRUE(rcfg.acceptor_endpoints.empty());

  ChaosCampaignConfig ccfg;
  EXPECT_EQ(ccfg.commit_protocol, tmf::CommitProtocol::kTwoPhase);
  EXPECT_FALSE(ccfg.track_messages);

  // A default (2PC) campaign must never touch the acceptor path.
  ChaosCampaignResult r = RunChaosCampaign(testutil::StormConfig(5));
  EXPECT_EQ(r.indoubt_resolved_via_acceptors, 0);
}

// The ballot encoding keeps proposers totally ordered and the home's free
// attempt-0 ballot below every recovery ballot.
TEST(PaxosDefaultsTest, BallotEncoding) {
  EXPECT_EQ(tmf::MakePaxosBallot(0, 1), 1u);
  EXPECT_EQ(tmf::MakePaxosBallot(1, 1), (1u << 16) | 1u);
  EXPECT_LT(tmf::MakePaxosBallot(0, 0xFFFF), tmf::MakePaxosBallot(1, 1));
  // Phase-1 payloads: the paxos form carries the ballot, the 2PC form stays
  // the bare 8-byte transid, and the decoder accepts both.
  Transid t = Transid{3, 1, 42};
  uint32_t ballot = 0;
  EXPECT_FALSE(
      tmf::DecodePhase1Ballot(Slice(tmf::EncodeTransidPayload(t)), &ballot));
  Bytes paxos = tmf::EncodePhase1Paxos(t, tmf::MakePaxosBallot(2, 7));
  EXPECT_TRUE(tmf::DecodePhase1Ballot(Slice(paxos), &ballot));
  EXPECT_EQ(ballot, tmf::MakePaxosBallot(2, 7));
  EXPECT_EQ(tmf::DecodeTransidPayload(Slice(paxos))->Pack(), t.Pack());
}

// The 2PC campaign's storm floor under Paxos Commit with `replication`
// acceptor pairs: every seed must survive the same invariants the 2PC
// campaign pins — zero oracle violations, conserved balances, no leaks,
// every crashed node recovered — and the acceptor log must stay bounded:
// its high-water tracks in-flight transactions, not throughput, and GC
// drains it once the storm settles.
void ExpectPaxosSeedSurvives(uint64_t seed, int replication) {
  ChaosCampaignResult r =
      ExpectStormSurvives(PaxosStormConfig(seed, replication), kFailingSeed);
  EXPECT_GT(r.acceptor_log_peak, 0u) << "seed " << seed;
  EXPECT_LT(r.acceptor_log_peak, 100u)
      << "seed " << seed << ": acceptor log grew with throughput, not load";
  EXPECT_LT(r.acceptor_log_final, 32u)
      << "seed " << seed << ": GC left instances behind";
}

// F = 1: three `$ACCEPT.<k>` pairs, one per node.
class ChaosPaxosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosPaxosTest, SurvivesSeed) { ExpectPaxosSeedSurvives(GetParam(), 3); }

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPaxosTest,
                         ::testing::Range<uint64_t>(1, 21));

// F = 2: five `$ACCEPT.<k>` pairs on three nodes, so nodes 1 and 2 each host
// two pairs and one node crash takes two acceptors down at once. Every
// participant votes to F+1 = 3 of them.
class ChaosFastPathTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFastPathTest, SurvivesSeed) {
  ExpectPaxosSeedSurvives(GetParam(), 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFastPathTest,
                         ::testing::Range<uint64_t>(1, 11));

// The paxos storm — coordinator crashes included — fires exactly the
// Step() reference's events at every worker count.
TEST(ChaosFastPathParallelTest, SameSeedSameStormAtAnyWorkerCount) {
  ExpectSurvived(ExpectSameStormAsStepReference(PaxosStormConfig(7)), 7,
                 kFailingSeed);
}

// The point of the protocol, measured: over the shared storm seeds, Paxos
// Commit settles in-doubt transactions at the acceptors while the home is
// away, so strictly fewer are still stranded when the home returns.
TEST(ChaosPaxosTest, FewerIndoubtBlockedOnHomeThanTwoPhase) {
  // "In-doubt transactions at recovery": participants cluster-wide still
  // blocked on a crashed home at the instant it returns. A 2PC participant
  // waits out the whole outage — however long — so every strand is still
  // there at recovery; a Paxos Commit participant resolves against the
  // acceptor majority ~600ms in (one escalation-grace tick plus one resolve
  // round). The storm must keep dead homes down well past that (2-4s heals)
  // and the resolve tick must undercut the outage, or both protocols read
  // near zero and the comparison is noise.
  auto comparison_storm = [](ChaosCampaignConfig* cfg) {
    cfg->schedule.faults = 10;
    cfg->schedule.min_node_crashes = 2;
    cfg->schedule.w_crash = 1.5;
    cfg->schedule.min_heal = 2'000'000;
    cfg->schedule.max_heal = 4'000'000;
    cfg->schedule.crash_recovery_pad = 4'000'000;
    cfg->indoubt_resolve_interval = Millis(250);
  };
  size_t indoubt_2pc = 0, indoubt_paxos = 0;
  int64_t via_acceptors = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ChaosCampaignConfig two = PaxosStormConfig(seed);
    comparison_storm(&two);
    two.commit_protocol = tmf::CommitProtocol::kTwoPhase;
    indoubt_2pc += RunChaosCampaign(two).indoubt_at_recovery;

    ChaosCampaignConfig pax = PaxosStormConfig(seed);
    comparison_storm(&pax);
    ChaosCampaignResult p = RunChaosCampaign(pax);
    indoubt_paxos += p.indoubt_at_recovery;
    via_acceptors += p.indoubt_resolved_via_acceptors;
  }
  EXPECT_GT(indoubt_2pc, 0u) << "storm seeds no longer produce an in-doubt "
                                "window; the comparison is vacuous";
  EXPECT_LT(indoubt_paxos, indoubt_2pc);
  EXPECT_GT(via_acceptors, 0);
}

// ---------------------------------------------------------------------------
// Hand-built crash windows
// ---------------------------------------------------------------------------

// Node 2's co-located acceptor holds the prepared votes of both voters. The
// log mutates before the force-delayed vote ack leaves, so the home cannot
// have tallied its commit point yet.
bool VotesLogged(Rig& rig, uint64_t t) {
  auto voted = [&](uint16_t voter) {
    auto& logs = rig.deploy.GetNode(2)->storage().acceptor_logs;
    auto log = logs.find("$ACCEPT.1");
    if (log == logs.end()) return false;
    auto it = log->second.entries.find({t, voter});
    return it != log->second.entries.end() && it->second.has_value &&
           it->second.value == tmf::Disposition::kCommitted;
  };
  return voted(1) && voted(2);
}

// CrashNode, or both CPUs of the $TMP pair fail in one step (node stays up).
enum class HomeDeath { kNode, kTmpPair };

// The window Paxos Commit exists for: the coordinator's commit point is
// fixed and it dies before any phase-2 message leaves — the exact "crashed
// between phase 1 and phase 2" schedule. A two-participant transaction
// homed on node 1 ENDs, and the home dies once VotesLogged holds: the
// acceptors hold the commit, the home's MAT does not. Under 2PC the
// participant blocks until the home is repaired; here it settles against
// the acceptors — the home instance first (it names the voters), then each
// voter's — while the home is still down, and the home later adopts the
// same decision from the acceptors: through ROLLFORWARD after a node crash,
// through the orphaned-lock sweep of the respawned TMP after a pair death.
// Run at a thread count or the Step() reference; *digest gets the stats
// registry for byte-comparison.
void CrashHomeInWindow(HomeDeath death, int workers, std::string* digest) {
  Rig rig(11, 3, /*paxos=*/true, /*resolve_interval=*/Millis(500),
          /*replication=*/3, workers);
  rig.SpawnClient(1);
  uint64_t t = rig.Begin(1);

  AtomicityOracle oracle;
  oracle.RegisterIntent(t, "m1",
                        {{1, "$DATA1", "mark1"}, {2, "$DATA2", "mark2"}});
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");

  rig.End(1, t);
  for (int i = 0; i < 4000 && !VotesLogged(rig, t); ++i) {
    rig.RunFor(Micros(100));
  }
  ASSERT_TRUE(VotesLogged(rig, t));
  ASSERT_EQ(rig.MatLookup(1, t), -1) << "home reached its MAT before crash; "
                                       "the window closed too late";
  if (death == HomeDeath::kNode) {
    rig.deploy.CrashNode(1);
  } else {
    os::Node* home = rig.deploy.GetNode(1)->node();
    tmf::TmpProcess* tmp = rig.deploy.GetNode(1)->tmp();
    ASSERT_TRUE(tmp != nullptr && tmp->HasBackup());
    const int backup_cpu = home->Find(tmp->peer().pid)->cpu();
    home->FailCpu(tmp->cpu());
    home->FailCpu(backup_cpu);
  }

  // With the coordinator dead, the participant's in-doubt resolve tick
  // fails over to the acceptors and applies the committed outcome.
  rig.RunFor(Seconds(5));
  EXPECT_EQ(rig.MatLookup(2, t), 1);
  EXPECT_EQ(rig.deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_GE(rig.sim.GetStats().Counter("tmf.paxos_resolved_commits"), 1);

  // The home's MAT has no record, but presumed abort would be unsound now.
  if (death == HomeDeath::kNode) {
    // ROLLFORWARD seals the instance at the acceptors and redoes the
    // home's own forced writes under the adopted commit.
    bool recovered = false;
    rig.deploy.RecoverNode(1, [&](const std::vector<tmf::RollforwardReport>&) {
      recovered = true;
    });
    rig.RunFor(Seconds(10));
    ASSERT_TRUE(recovered);
    EXPECT_GE(rig.sim.GetStats().Counter("recovery.paxos_resolves"), 1);
  } else {
    // The respawned TMP finds t's locks on $DATA1 held by a transaction it
    // does not track; it seals the outcome at the acceptors and commits.
    rig.RunFor(Seconds(5));
    EXPECT_GE(rig.sim.GetStats().Counter("tmf.orphan_lock_commits"), 1);
    EXPECT_EQ(rig.sim.GetStats().Counter("tmf.orphan_lock_aborts"), 0);
  }
  EXPECT_EQ(rig.MatLookup(1, t), 1);

  // Unknown to the client (it died with the home): the oracle demands
  // all-or-nothing, and "all" is what the acceptors chose.
  auto violations = oracle.Check(&rig.deploy);
  for (const auto& v : violations) {
    ADD_FAILURE() << "txn " << v.transid << ": " << v.detail;
  }
  *digest = rig.sim.GetStats().ToString();
}

class FastPathOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(FastPathOracleTest, CoordinatorCrashMidFastPathResolvesViaAcceptors) {
  for (HomeDeath death : {HomeDeath::kNode, HomeDeath::kTmpPair}) {
    SCOPED_TRACE(death == HomeDeath::kNode ? "node crash" : "$TMP pair death");
    std::string reference;
    std::string actual;
    CrashHomeInWindow(death, sim::testing::kStepReference, &reference);
    CrashHomeInWindow(death, GetParam(), &actual);
    EXPECT_EQ(actual, reference) << "workers=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, FastPathOracleTest,
                         ::testing::Values(1, 2, 4));

// GC vs the late resolver: after the home reclaims a committed
// transaction's voter instances, the acceptor logs hold no live instance —
// a resolver arriving later must be answered from the sealed ring, not by
// (unsoundly) abort-fixing a fresh empty instance.
TEST(FastPathGcTest, SealedDecisionAnswersLateResolver) {
  Rig rig(19, 3, /*paxos=*/true, /*resolve_interval=*/Millis(500));
  rig.SpawnClient(1);
  uint64_t t = rig.Begin(1);
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");
  auto* e = rig.End(1, t);
  // Commit, phase 2, acks, then the 100ms reclaim flush — 2s covers it all.
  rig.sim.RunFor(Seconds(2));
  ASSERT_TRUE(e->done && e->status.ok()) << e->status.ToString();
  EXPECT_EQ(rig.MatLookup(1, t), 1);
  EXPECT_EQ(rig.MatLookup(2, t), 1);
  EXPECT_GE(rig.sim.GetStats().Counter("tmf.paxos_fast_commit_points"), 1);
  EXPECT_GE(rig.sim.GetStats().Counter("tmf.paxos_reclaims_sent"), 1);

  // Every live voter instance of t is gone; the decision is sealed.
  bool sealed_somewhere = false;
  for (int n = 1; n <= 3; ++n) {
    for (const auto& [name, log] :
         rig.deploy.GetNode(static_cast<net::NodeId>(n))
             ->storage().acceptor_logs) {
      (void)name;
      for (const auto& [key, entry] : log.entries) {
        (void)entry;
        EXPECT_NE(key.first, t) << "live instance survived GC";
      }
      auto it = log.sealed.find(t);
      if (it != log.sealed.end()) {
        sealed_somewhere = true;
        EXPECT_EQ(it->second, tmf::Disposition::kCommitted);
      }
    }
  }
  EXPECT_TRUE(sealed_somewhere);

  // The race's losing side: a resolver that shows up after GC.
  std::vector<std::pair<net::NodeId, std::string>> endpoints;
  for (int k = 0; k < 3; ++k) {
    endpoints.emplace_back(static_cast<net::NodeId>(k % 3 + 1),
                           "$ACCEPT." + std::to_string(k));
  }
  tmf::Disposition chosen = tmf::Disposition::kUnknown;
  tmf::ResolvePaxosOutcome(rig.client, endpoints, Transid::Unpack(t),
                           /*attempt=*/5,
                           [&](tmf::Disposition d) { chosen = d; });
  rig.sim.RunFor(Seconds(2));
  EXPECT_EQ(chosen, tmf::Disposition::kCommitted)
      << "late resolver did not get the sealed decision";
}

// Multi-pair placement: a 3-node cluster fields commit_replication = 5 by
// hosting two `$ACCEPT.<k>` pairs on nodes 1 and 2. F+1 = 3 votes per voter
// still reach a co-located-first quorum, the tally still needs a majority
// of all five logs per voter, and GC seals across every pair.
TEST(FastPathPlacementTest, FiveAcceptorsOnThreeNodes) {
  Rig rig(23, 3, /*paxos=*/true, /*resolve_interval=*/Millis(500),
          /*replication=*/5);
  // Placement k % 3 + 1: node 1 hosts pairs {0, 3}, node 2 {1, 4}, node 3
  // {2}.
  EXPECT_EQ(rig.deploy.GetNode(1)->storage().acceptor_logs.size(), 2u);
  EXPECT_EQ(rig.deploy.GetNode(2)->storage().acceptor_logs.size(), 2u);
  EXPECT_EQ(rig.deploy.GetNode(3)->storage().acceptor_logs.size(), 1u);
  ASSERT_TRUE(rig.deploy.GetNode(1)->storage().acceptor_logs.count(
      "$ACCEPT.0"));
  ASSERT_TRUE(rig.deploy.GetNode(1)->storage().acceptor_logs.count(
      "$ACCEPT.3"));

  rig.SpawnClient(1);
  uint64_t t = rig.Begin(1);
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");
  auto* e = rig.End(1, t);
  rig.sim.RunFor(Seconds(2));
  ASSERT_TRUE(e->done && e->status.ok()) << e->status.ToString();
  EXPECT_EQ(rig.MatLookup(1, t), 1);
  EXPECT_EQ(rig.MatLookup(2, t), 1);
  EXPECT_GE(rig.sim.GetStats().Counter("tmf.paxos_fast_commit_points"), 1);
  // Both of node 1's pairs took part and were sealed independently: two
  // distinct durable logs, not one shared one.
  const auto& logs1 = rig.deploy.GetNode(1)->storage().acceptor_logs;
  EXPECT_TRUE(logs1.at("$ACCEPT.0").sealed.count(t));
  EXPECT_TRUE(logs1.at("$ACCEPT.3").sealed.count(t));
  EXPECT_GT(logs1.at("$ACCEPT.0").peak_instances, 0u);
}

// ---------------------------------------------------------------------------
// Negotiation bugfixes
// ---------------------------------------------------------------------------

// Regression: ROLLFORWARD used to negotiate its unresolved transactions one
// at a time in transid order, so a single dead home at the front of the set
// head-of-line blocked every answer a live home could give immediately.
// Two crashed homes, brought back one at a time, expose it: the recovering
// participant must settle home 2's transaction (and durably record it)
// while home 1 — whose transaction sorts first — is still down.
TEST(RecoveryNegotiationTest, TwoCrashedHomesNegotiateConcurrently) {
  Rig rig(13, 4, /*paxos=*/false);
  rig.SpawnClient(1);
  uint64_t ta = rig.Begin(1);
  rig.Insert(ta, "mark1", "ma");
  rig.Insert(ta, "mark4", "ma");

  auto* client2 = rig.deploy.GetNode(2)->node()->Spawn<TestClient>(2);
  tmf::FileSystem fs2(client2, &rig.deploy.catalog());
  rig.sim.Run();
  auto* b = client2->CallRaw(net::Address(2, "$TMP"), tmf::kTmfBegin, {});
  rig.sim.Run();
  ASSERT_TRUE(b->done && b->status.ok());
  uint64_t tb = tmf::DecodeTransidPayload(Slice(b->payload))->Pack();
  auto insert2 = [&](const std::string& file, const std::string& key) {
    bool done = false;
    Status st;
    client2->set_current_transid(tb);
    fs2.Insert(file, Slice(key), Slice(std::string("x")),
               [&](const Status& s, const Bytes&) {
                 st = s;
                 done = true;
               });
    client2->set_current_transid(0);
    rig.sim.Run();
    ASSERT_TRUE(done && st.ok()) << st.ToString();
  };
  insert2("mark2", "mb");
  insert2("mark4", "mb");

  // END both transactions back to back, so both homes pass their commit
  // points within one phase-2 flight time of each other; the instant both
  // home MATs hold the commit records, isolate node 4 completely (the mesh
  // would happily route a phase 2 around any single cut link).
  rig.End(1, ta);
  client2->CallRaw(net::Address(2, "$TMP"), tmf::kTmfEnd,
                   tmf::EncodeTransidPayload(Transid::Unpack(tb)), tb);
  for (int i = 0;
       i < 2000 && !(rig.MatLookup(1, ta) == 1 && rig.MatLookup(2, tb) == 1);
       ++i) {
    rig.sim.RunFor(Micros(500));
  }
  ASSERT_EQ(rig.MatLookup(1, ta), 1);
  ASSERT_EQ(rig.MatLookup(2, tb), 1);
  for (net::NodeId n : {1, 2, 3}) rig.deploy.cluster().CutLink(n, 4);
  rig.sim.RunFor(Seconds(1));
  ASSERT_EQ(rig.MatLookup(4, ta), -1) << "phase 2 reached node 4 before the "
                                         "partition; no in-doubt window";
  ASSERT_EQ(rig.MatLookup(4, tb), -1);
  ASSERT_GT(rig.deploy.GetNode(4)->disc("$DATA4")->locks().held_count(), 0u);

  // Node 4 holds both transactions in doubt. Lose it — and both homes.
  rig.deploy.CrashNode(4);
  rig.deploy.CrashNode(1);
  rig.deploy.CrashNode(2);
  rig.sim.RunFor(Seconds(1));
  for (net::NodeId n : {1, 2, 3}) rig.deploy.cluster().RestoreLink(n, 4);

  // Recover the participant first: both negotiations start (and back off)
  // against dead homes.
  bool recovered4 = false;
  rig.deploy.RecoverNode(4, [&](const std::vector<tmf::RollforwardReport>&) {
    recovered4 = true;
  });
  rig.sim.RunFor(Seconds(10));
  EXPECT_FALSE(recovered4);
  EXPECT_GT(rig.sim.GetStats().Counter("recovery.negotiation_retries"), 0);
  // The high-water gauge climbs while both homes stay dead.
  EXPECT_GT(rig.sim.GetStats().Counter("recovery.max_retry_attempts"), 0);

  // Home 2 returns. Its transaction must settle on node 4 even though home
  // 1's transaction — first in transid order — is still unanswerable.
  bool recovered2 = false;
  rig.deploy.RecoverNode(2, [&](const std::vector<tmf::RollforwardReport>&) {
    recovered2 = true;
  });
  rig.sim.RunFor(Seconds(20));
  ASSERT_TRUE(recovered2);
  EXPECT_EQ(rig.MatLookup(4, tb), 1)
      << "home 2's answer was head-of-line blocked behind dead home 1";
  EXPECT_EQ(rig.MatLookup(4, ta), -1);
  EXPECT_FALSE(recovered4);

  // Home 1 returns; everything settles and the participant finishes.
  bool recovered1 = false;
  rig.deploy.RecoverNode(1, [&](const std::vector<tmf::RollforwardReport>&) {
    recovered1 = true;
  });
  rig.sim.RunFor(Seconds(30));
  ASSERT_TRUE(recovered1);
  ASSERT_TRUE(recovered4);
  EXPECT_EQ(rig.MatLookup(4, ta), 1);

  AtomicityOracle oracle;
  oracle.RegisterIntent(ta, "ma",
                        {{1, "$DATA1", "mark1"}, {4, "$DATA4", "mark4"}});
  oracle.RegisterIntent(tb, "mb",
                        {{2, "$DATA2", "mark2"}, {4, "$DATA4", "mark4"}});
  oracle.RecordOutcome(ta, AtomicityOracle::Outcome::kCommitted);
  oracle.RecordOutcome(tb, AtomicityOracle::Outcome::kCommitted);
  auto violations = oracle.Check(&rig.deploy);
  for (const auto& v : violations) {
    ADD_FAILURE() << "txn " << v.transid << ": " << v.detail;
  }
}

// The deterministic backoff: same (seed, transid, attempt) -> same delay,
// exponential growth, hard cap.
TEST(RecoveryNegotiationTest, BackoffIsDeterministicCappedAndJittered) {
  tmf::NodeRecoveryConfig cfg;
  cfg.jitter_seed = 99;
  tmf::NodeRecoveryProcess a(cfg), b(cfg);
  Transid t1{1, 0, 7}, t2{2, 0, 7};
  for (uint32_t attempt = 1; attempt <= 12; ++attempt) {
    SimDuration d = a.BackoffDelayForTest(t1, attempt);
    EXPECT_EQ(d, b.BackoffDelayForTest(t1, attempt)) << attempt;
    EXPECT_GE(d, tmf::kNegotiationRetryInterval);
    EXPECT_LE(d, tmf::kNegotiationBackoffCap + tmf::kNegotiationRetryInterval)
        << attempt;
  }
  // Different transids de-synchronise: not every attempt waits identically.
  bool differs = false;
  for (uint32_t attempt = 1; attempt <= 12; ++attempt) {
    differs |= a.BackoffDelayForTest(t1, attempt) !=
               a.BackoffDelayForTest(t2, attempt);
  }
  EXPECT_TRUE(differs);
}

/// Impersonates a home $TMP and answers every resolve query with bytes that
/// decode as no disposition at all.
class EvilResolver : public os::Process {
 public:
  std::string DebugName() const override { return "evil-resolver"; }

 protected:
  void OnMessage(const net::Message& msg) override {
    if (msg.tag == tmf::kTmfResolveTxn) {
      Reply(msg, Status::Ok(), Bytes{0x7F, 0xEE, 0xEE});
    }
  }
};

// Regression: a malformed kTmfResolveTxn reply used to be silently dropped
// — the participant stayed in doubt with no trace of why. It still (safely)
// stays in doubt, but the drop is now counted, and the next tick resolves
// once the home answers properly again.
TEST(RecoveryNegotiationTest, MalformedResolveReplyIsCounted) {
  Rig rig(17, 2, /*paxos=*/false, /*resolve_interval=*/Millis(500));
  rig.SpawnClient(1);
  uint64_t t = rig.Begin(1);
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");
  rig.End(1, t);
  rig.RunToCommitRecord(1, t);
  ASSERT_EQ(rig.MatLookup(1, t), 1);
  rig.deploy.cluster().CutLink(1, 2);
  rig.sim.RunFor(Seconds(1));

  // Kill the home's volatile phase-2 delivery and bring the node back while
  // it is still unreachable; once the respawned TMP pair has started (its
  // OnStart re-registers the $TMP name), point the name at a corrupter, and
  // only then heal the link — every resolve tick from node 2 now lands on
  // the corrupter.
  rig.deploy.CrashNode(1);
  rig.sim.RunFor(Seconds(1));
  rig.deploy.RecoverNode(1);
  // The reload reconnected every link of node 1; cut 1-2 again until the
  // corrupter is in place.
  rig.deploy.cluster().CutLink(1, 2);
  rig.sim.RunFor(Millis(100));
  os::Node* n1 = rig.deploy.GetNode(1)->node();
  net::Pid real_tmp = n1->LookupName("$TMP");
  ASSERT_NE(real_tmp, 0u);
  auto* evil = n1->Spawn<EvilResolver>(2);
  n1->RegisterName("$TMP", evil->id().pid);
  rig.deploy.cluster().RestoreLink(1, 2);

  rig.sim.RunFor(Seconds(3));
  EXPECT_GE(rig.sim.GetStats().Counter("tmf.resolve_malformed_replies"), 1);
  EXPECT_EQ(rig.MatLookup(2, t), -1) << "resolved against garbage";
  EXPECT_GT(rig.deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);

  // Restore the real TMP; its durable MAT record answers the next tick.
  n1->RegisterName("$TMP", real_tmp);
  rig.sim.RunFor(Seconds(3));
  EXPECT_EQ(rig.MatLookup(2, t), 1);
  EXPECT_EQ(rig.deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_GE(rig.sim.GetStats().Counter("tmf.indoubt_resolved_commits"), 1);
}

// The one phase-2b accept rule (CommitAcceptorLog::Accept), shared by the
// acceptor's accept and vote handlers and the home's deposit of a child's
// vote, outcome by outcome.
constexpr uint16_t kVoter = 2;
const Transid kTxn{1, 0, 77};

TEST(CommitAcceptorLogTest, AcceptCreatesTheInstanceAndStampsBorn) {
  tmf::CommitAcceptorLog log;
  const uint32_t ballot = tmf::MakePaxosBallot(0, 1);
  EXPECT_EQ(log.Accept(kTxn, kVoter, ballot, tmf::Disposition::kCommitted,
                       {2, 3}, /*now=*/100),
            tmf::AcceptOutcome::kAccepted);
  const tmf::CommitAcceptorEntry& e = log.entries.at({kTxn.Pack(), kVoter});
  EXPECT_EQ(e.promised, ballot);
  EXPECT_EQ(e.accepted_ballot, ballot);
  EXPECT_TRUE(e.has_value);
  EXPECT_EQ(e.value, tmf::Disposition::kCommitted);
  EXPECT_EQ(e.participants, (std::vector<net::NodeId>{2, 3}));
  EXPECT_EQ(e.born, 100);
  EXPECT_EQ(log.peak_instances, 1u);
}

TEST(CommitAcceptorLogTest, ReplayAtTheSameBallotAndValueIsADuplicate) {
  tmf::CommitAcceptorLog log;
  const uint32_t ballot = tmf::MakePaxosBallot(0, 1);
  log.Accept(kTxn, kVoter, ballot, tmf::Disposition::kCommitted, {2}, 100);
  EXPECT_EQ(log.Accept(kTxn, kVoter, ballot, tmf::Disposition::kCommitted, {},
                       200),
            tmf::AcceptOutcome::kDuplicate);
  const tmf::CommitAcceptorEntry& e = log.entries.at({kTxn.Pack(), kVoter});
  EXPECT_EQ(e.born, 100) << "a replay re-stamped the instance";
  EXPECT_EQ(e.participants, (std::vector<net::NodeId>{2}));
}

TEST(CommitAcceptorLogTest, ReacceptAtThePromisedBallot) {
  tmf::CommitAcceptorLog log;
  const uint32_t vote = tmf::MakePaxosBallot(0, 1);
  const uint32_t recovery = tmf::MakePaxosBallot(1, 3);
  log.Accept(kTxn, kVoter, vote, tmf::Disposition::kCommitted, {}, 100);
  // A recovery proposer's prepare was granted: the promise moved up.
  log.At(kTxn, kVoter).promised = recovery;
  EXPECT_EQ(log.Accept(kTxn, kVoter, recovery, tmf::Disposition::kAborted, {},
                       300),
            tmf::AcceptOutcome::kAccepted);
  const tmf::CommitAcceptorEntry& e = log.entries.at({kTxn.Pack(), kVoter});
  EXPECT_EQ(e.promised, recovery);
  EXPECT_EQ(e.accepted_ballot, recovery);
  EXPECT_EQ(e.value, tmf::Disposition::kAborted);
  EXPECT_EQ(e.born, 100);
}

TEST(CommitAcceptorLogTest, VoteUnderAUsurpingPromiseIsRejected) {
  tmf::CommitAcceptorLog log;
  const uint32_t recovery = tmf::MakePaxosBallot(1, 3);
  log.At(kTxn, kVoter).promised = recovery;
  EXPECT_EQ(log.Accept(kTxn, kVoter, tmf::MakePaxosBallot(0, 1),
                       tmf::Disposition::kCommitted, {2}, 100),
            tmf::AcceptOutcome::kRejected);
  const tmf::CommitAcceptorEntry& e = log.entries.at({kTxn.Pack(), kVoter});
  EXPECT_EQ(e.promised, recovery);
  EXPECT_FALSE(e.has_value);
  EXPECT_TRUE(e.participants.empty());
  EXPECT_EQ(e.born, 100) << "the rejected vote still created the instance";
}

TEST(CommitAcceptorLogTest, SealedTransactionCreatesNoInstance) {
  tmf::CommitAcceptorLog log;
  log.Seal(kTxn.Pack(), tmf::Disposition::kAborted);
  EXPECT_EQ(log.Accept(kTxn, kVoter, tmf::MakePaxosBallot(0, 1),
                       tmf::Disposition::kCommitted, {}, 100),
            tmf::AcceptOutcome::kSealed);
  EXPECT_TRUE(log.entries.empty());
  EXPECT_EQ(log.peak_instances, 0u);
}

// A vote ack naming an acceptor index outside the group must not reach the
// tally: its bit would count a phantom acceptor toward F+1, and an index of
// 32 or more would shift a 32-bit mask out of range. Injected at the home
// the instant END puts the transaction in phase 1 — before any real vote
// can be forced — out-of-range acks for both voters are counted and
// dropped, and the commit point still comes from the real tally.
TEST(PaxosVoteAckTest, OutOfRangeAcceptorIndexIsDropped) {
  Rig rig(29, 2, /*paxos=*/true);
  rig.SpawnClient(1);
  uint64_t t = rig.Begin(1);
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");
  auto* e = rig.End(1, t);
  tmf::TxnState state = tmf::TxnState::kActive;
  for (int i = 0; i < 100 && state != tmf::TxnState::kEnding; ++i) {
    rig.RunFor(Micros(100));
    rig.deploy.GetNode(1)->tmp()->GetTxnState(Transid::Unpack(t), &state);
  }
  ASSERT_EQ(state, tmf::TxnState::kEnding);

  for (uint8_t index : {3, 4, 31, 32, 255}) {
    tmf::PaxosVoteAck ack;
    ack.transid = Transid::Unpack(t);
    ack.acceptor_index = index;
    ack.voters = {1, 2};
    rig.client->SendRaw(net::Address(1, "$TMP"), tmf::kTmfPaxosVoteAck,
                        tmf::EncodePaxosVoteAck(ack), t);
  }
  rig.RunFor(Millis(1));
  const sim::Stats& stats = rig.sim.GetStats();
  EXPECT_EQ(stats.Counter("tmf.paxos_bad_vote_acks"), 5);
  EXPECT_EQ(stats.Counter("tmf.paxos_commit_points"), 0);
  EXPECT_EQ(rig.MatLookup(1, t), -1) << "phantom acceptors reached F+1";

  rig.RunFor(Seconds(1));
  ASSERT_TRUE(e->done && e->status.ok()) << e->status.ToString();
  EXPECT_EQ(stats.Counter("tmf.paxos_fast_commit_points"), 1);
  EXPECT_EQ(rig.MatLookup(1, t), 1);
}

// The tally, the reclaim masks and the home's vote deposit are 32-bit masks
// over the acceptor group, so a paxos deployment needs 1 to 32 acceptors.
TEST(PaxosDeploymentDeathTest, RejectsAcceptorGroupsOutside1To32) {
  auto deploy_with = [](int acceptors) {
    sim::Simulation sim(1);
    Deployment deploy(&sim);
    NodeSpec spec;
    spec.id = 1;
    spec.volumes = {VolumeSpec{"$DATA1", {FileSpec{"mark1"}}, {}}};
    spec.tmp_config.commit_protocol = tmf::CommitProtocol::kPaxos;
    for (int k = 0; k < acceptors; ++k) {
      spec.tmp_config.acceptor_endpoints.emplace_back(
          1, "$ACCEPT." + std::to_string(k));
    }
    deploy.AddNode(spec);
  };
  EXPECT_DEATH(deploy_with(33), "1 to 32 acceptor endpoints, got 33");
  EXPECT_DEATH(deploy_with(0), "1 to 32 acceptor endpoints, got 0");
}

}  // namespace
}  // namespace encompass::app
