// Chaos recovery campaign tests: randomized fault schedules (CPU kills, bus
// cuts, drive drops, link flaps, partitions, total node crashes) run against
// a three-node transfer workload, with the cluster-wide atomicity oracle
// checked after every storm. Each seed must survive: zero oracle violations,
// conserved balances, no leaked locks/transactions, and every crashed node
// recovered through ROLLFORWARD. A failing seed writes its schedule dump to
// chaos_failing_seed_<n>.schedule so CI can archive it; the seed replays the
// exact storm (ChaosSchedule + ReplayChaosCampaign).

#include <gtest/gtest.h>

#include "encompass/chaos.h"
#include "storm_test_util.h"

namespace encompass::app {
namespace {

using testutil::ExpectSameStormAsStepReference;
using testutil::ExpectStormSurvives;
using testutil::ExpectSurvived;
using testutil::Rig;
using testutil::StormConfig;

constexpr char kFailingSeed[] = "chaos_failing_seed_";

class ChaosCampaignTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosCampaignTest, SurvivesSeed) {
  ExpectStormSurvives(StormConfig(GetParam()), kFailingSeed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosCampaignTest,
                         ::testing::Range<uint64_t>(1, 21));

// A failing (or any) seed's dumped schedule replays deterministically:
// ChaosSchedule regenerates it from the config, fault for fault and dump
// for dump, and the replayed campaign reproduces the run event for event.
TEST(ChaosReplayTest, DumpedScheduleReplaysDeterministically) {
  ChaosCampaignConfig cfg = StormConfig(42);
  ChaosCampaignResult first = RunChaosCampaign(cfg);

  const sim::FaultSchedule regenerated = ChaosSchedule(cfg);
  ASSERT_EQ(regenerated.faults.size(), first.schedule.faults.size());
  EXPECT_EQ(regenerated.seed, first.schedule.seed);
  for (size_t i = 0; i < regenerated.faults.size(); ++i) {
    EXPECT_TRUE(regenerated.faults[i] == first.schedule.faults[i])
        << "fault " << i;
  }
  EXPECT_EQ(regenerated.Dump(), first.schedule_dump);

  ChaosCampaignResult replay = ReplayChaosCampaign(cfg, regenerated);
  EXPECT_EQ(replay.txns_started, first.txns_started);
  EXPECT_EQ(replay.txns_committed, first.txns_committed);
  EXPECT_EQ(replay.txns_aborted, first.txns_aborted);
  EXPECT_EQ(replay.txns_unknown, first.txns_unknown);
  EXPECT_EQ(replay.balance_sum, first.balance_sum);
  EXPECT_EQ(replay.recoveries_completed, first.recoveries_completed);
  EXPECT_EQ(replay.journal, first.journal);
}

// The same storm on the parallel engine: the round loop at every PDES
// worker count fires exactly the events the Step() reference fires, so the
// journal, transaction outcomes, balances, and stats registry all match it.
// The per-node PRNG streams, key-ordered journal, and the round horizons are
// what make this hold; a regression in any shows up as a diff here. Seed 1's
// storm sends requests to peers whose own next event is far off, so it also
// checks the horizon's reactive-reply (echo) bound.
TEST(ChaosParallelTest, SameSeedSameStormAtAnyWorkerCount) {
  ExpectSurvived(ExpectSameStormAsStepReference(StormConfig(1)), 1,
                 kFailingSeed);
}

// The same storm with every node on the queue execution lane: clients
// submit whole predeclared transactions to $QPLAN instead of running the
// lock-lane verb sequence. A queue-lane commit is a normal TMF commit, so
// the atomicity oracle, balance conservation, leak checks, and ROLLFORWARD
// floor all hold unchanged — and the storm matches the Step() reference at
// every worker count.
TEST(ChaosQueueLaneTest, QueueLaneStormHoldsOracle) {
  ChaosCampaignConfig cfg = StormConfig(9);
  cfg.queue_lane = true;
  ChaosCampaignResult r = ExpectSameStormAsStepReference(cfg);
  EXPECT_GE(r.node_crashes, 1u);
  EXPECT_GT(r.txns_started, 0u);
  EXPECT_GT(r.txns_committed, 0u);
  ExpectSurvived(r, 9, kFailingSeed);
}

// The generator's structural guarantees hold for many seeds: every fault
// heals, heavy faults never overlap, and the crash floor is honored.
TEST(FaultScheduleTest, StructuralGuaranteesAcrossSeeds) {
  sim::FaultScheduleConfig cfg;
  cfg.nodes = 3;
  cfg.faults = 10;
  cfg.min_node_crashes = 2;
  sim::FaultScheduleGenerator gen(cfg);
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    sim::FaultSchedule s = gen.Generate(seed);
    EXPECT_EQ(s.faults.size(), 10u);
    EXPECT_GE(s.CountOf(sim::FaultClass::kNodeCrash), 2u);
    SimTime heavy_free = 0;
    for (const auto& f : s.faults) {
      EXPECT_GT(f.heal_after, 0) << "seed " << seed;  // everything heals
      if (f.fault == sim::FaultClass::kNodeCrash ||
          f.fault == sim::FaultClass::kPartition) {
        EXPECT_GE(f.at, heavy_free) << "seed " << seed;
        heavy_free = f.at + f.heal_after;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-built crash windows: a partition between phase 1 and phase 2 of a
// distributed commit, convergence asserted through the oracle.
// ---------------------------------------------------------------------------

TEST(ChaosOracleTest, PartitionBetweenPhasesConvergesAfterHeal) {
  Rig rig(7, 2, /*paxos=*/false);
  rig.SpawnClient(1);

  // Begin, write the marker on both nodes.
  uint64_t t = rig.Begin(1);
  AtomicityOracle oracle;
  oracle.RegisterIntent(t, "m1",
                        {{1, "$DATA1", "mark1"}, {2, "$DATA2", "mark2"}});
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");

  // END; cut the link the instant the commit record hits the home MAT —
  // after phase 1 (node 2 is prepared, in doubt) and before its phase 2.
  auto* e = rig.End(1, t);
  rig.RunToCommitRecord(1, t);
  ASSERT_EQ(rig.MatLookup(1, t), 1);
  rig.deploy.cluster().CutLink(1, 2);
  rig.RunFor(Seconds(1));

  // Home committed; the participant side is partitioned away in doubt.
  ASSERT_TRUE(e->done);
  ASSERT_TRUE(e->status.ok());
  oracle.RecordOutcome(t, AtomicityOracle::Outcome::kCommitted);
  EXPECT_GT(rig.deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_GT(rig.deploy.GetNode(1)->tmp()->PendingSafeDeliveries(), 0u);

  // Heal; safe delivery finishes phase 2 and both sides converge.
  rig.deploy.cluster().RestoreLink(1, 2);
  rig.RunFor(Seconds(5));

  auto violations = oracle.Check(&rig.deploy);
  for (const auto& v : violations) {
    ADD_FAILURE() << "txn " << v.transid << ": " << v.detail;
  }
  EXPECT_EQ(rig.deploy.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(rig.deploy.GetNode(1)->tmp()->PendingSafeDeliveries(), 0u);
  EXPECT_EQ(rig.MatLookup(2, t), 1);
}

// Same window, but the partitioned participant then loses the whole node:
// its volatile marker insert is gone, and only ROLLFORWARD + negotiation
// with the home TMP can restore the committed write. The oracle must still
// see the marker on both volumes afterwards.
TEST(ChaosOracleTest, CrashedInDoubtParticipantRecoversCommittedWrite) {
  Rig rig(11, 2, /*paxos=*/false);
  rig.SpawnClient(1);
  uint64_t t = rig.Begin(1);
  AtomicityOracle oracle;
  oracle.RegisterIntent(t, "m1",
                        {{1, "$DATA1", "mark1"}, {2, "$DATA2", "mark2"}});
  rig.Insert(t, "mark1", "m1");
  rig.Insert(t, "mark2", "m1");

  auto* e = rig.End(1, t);
  rig.RunToCommitRecord(1, t);
  rig.deploy.cluster().CutLink(1, 2);
  rig.RunFor(Seconds(1));
  ASSERT_TRUE(e->done && e->status.ok());
  oracle.RecordOutcome(t, AtomicityOracle::Outcome::kCommitted);

  // Total failure of the in-doubt participant: volatile state (including
  // the unforced marker insert... but NOT its phase-1-forced after-image)
  // is lost.
  rig.deploy.CrashNode(2);
  rig.RunFor(Seconds(1));

  bool recovered = false;
  rig.deploy.RecoverNode(2, [&](const std::vector<tmf::RollforwardReport>&) {
    recovered = true;
  });
  rig.RunFor(Seconds(10));
  ASSERT_TRUE(recovered);

  auto violations = oracle.Check(&rig.deploy);
  for (const auto& v : violations) {
    ADD_FAILURE() << "txn " << v.transid << ": " << v.detail;
  }
  EXPECT_EQ(rig.MatLookup(2, t), 1);
}

}  // namespace
}  // namespace encompass::app
