// Integration tests for TMF: the transaction verbs, the Figure-3 state
// machine, single-node and distributed two-phase commit, unilateral abort
// on partition, in-doubt lock retention, safe-delivery after heal, TMP
// takeover, ROLLFORWARD after total node failure, the file lock and
// alternate-key read verbs, and a three-level transaction tree.
//
// Service CPU placement on a 4-CPU single-volume node (deployment order):
//   $AUD.<vol> pair on (0,1), <vol> DISCPROCESS pair on (1,2),
//   $BACKOUT pair on (2,3), $TMP pair on (3,0).

#include <gtest/gtest.h>

#include "common/coding.h"
#include "encompass/deployment.h"
#include "storage/record.h"
#include "tmf/file_system.h"
#include "tmf/rollforward.h"
#include "tmf/tmf_protocol.h"
#include "test_util.h"

namespace encompass::tmf {
namespace {

using app::Deployment;
using app::FileSpec;
using app::NodeDeployment;
using app::NodeSpec;
using app::VolumeSpec;
using testutil::TestClient;

class TmfTest : public ::testing::Test {
 protected:
  TmfTest() : sim_(23), deploy_(&sim_) {
    NodeSpec n1;
    n1.id = 1;
    storage::FileSchema by_site;
    by_site.alternate_keys = {"site"};
    n1.volumes = {VolumeSpec{
        "$DATA1",
        {FileSpec{"acct"},
         FileSpec{"parts", storage::FileOrganization::kKeySequenced, true,
                  by_site},
         FileSpec{"slots", storage::FileOrganization::kRelative}},
        {}}};
    node1_ = deploy_.AddNode(n1);

    NodeSpec n2;
    n2.id = 2;
    n2.volumes = {VolumeSpec{"$DATA2", {FileSpec{"stock"}}, {}}};
    node2_ = deploy_.AddNode(n2);

    deploy_.LinkAll();
    EXPECT_TRUE(deploy_.DefineFile("acct", 1, "$DATA1").ok());
    EXPECT_TRUE(deploy_.DefineFile("parts", 1, "$DATA1").ok());
    EXPECT_TRUE(deploy_.DefineFile("slots", 1, "$DATA1").ok());
    EXPECT_TRUE(deploy_.DefineFile("stock", 2, "$DATA2").ok());

    client_ = node1_->node()->Spawn<TestClient>(2);
    fs_ = std::make_unique<FileSystem>(client_, &deploy_.catalog());
    sim_.Run();
  }

  net::Address Tmp1() { return net::Address(1, "$TMP"); }

  void CheckTmpTakeoverResumesCommit(
      const std::function<bool(const Transid&)>& reach_kill_instant,
      int64_t mat_forces);

  uint64_t Begin() {
    auto* o = client_->CallRaw(Tmp1(), kTmfBegin, {});
    sim_.Run();
    EXPECT_TRUE(o->done && o->status.ok());
    auto t = DecodeTransidPayload(Slice(o->payload));
    EXPECT_TRUE(t.ok());
    return t->Pack();
  }

  Status End(uint64_t transid) {
    auto* o = client_->CallRaw(Tmp1(), kTmfEnd,
                               EncodeTransidPayload(Transid::Unpack(transid)),
                               transid);
    sim_.Run();
    EXPECT_TRUE(o->done);
    return o->status;
  }

  Status Abort(uint64_t transid) {
    auto* o = client_->CallRaw(Tmp1(), kTmfAbort,
                               EncodeTransidPayload(Transid::Unpack(transid)),
                               transid);
    sim_.Run();
    EXPECT_TRUE(o->done);
    return o->status;
  }

  /// Synchronous wrapper around an asynchronous FileSystem call.
  Status FsOp(uint64_t transid,
              const std::function<void(FileSystem::Callback)>& op,
              Bytes* payload = nullptr) {
    Status result = Status::Timeout("no callback");
    bool done = false;
    client_->set_current_transid(transid);
    op([&](const Status& s, const Bytes& p) {
      result = s;
      if (payload != nullptr) *payload = p;
      done = true;
    });
    client_->set_current_transid(0);
    sim_.Run();
    EXPECT_TRUE(done);
    return result;
  }

  Status Insert(uint64_t transid, const std::string& file, const std::string& key,
                const std::string& value) {
    return FsOp(transid, [&](FileSystem::Callback cb) {
      fs_->Insert(file, Slice(key), Slice(value), std::move(cb));
    });
  }
  Status Update(uint64_t transid, const std::string& file, const std::string& key,
                const std::string& value) {
    return FsOp(transid, [&](FileSystem::Callback cb) {
      fs_->Update(file, Slice(key), Slice(value), std::move(cb));
    });
  }
  Status ReadLocked(uint64_t transid, const std::string& file,
                    const std::string& key, std::string* value) {
    Bytes payload;
    Status s = FsOp(transid, [&](FileSystem::Callback cb) {
      fs_->Read(file, Slice(key), /*lock=*/true, std::move(cb));
    }, &payload);
    if (value != nullptr) *value = ToString(payload);
    return s;
  }

  std::string DiscValue(NodeDeployment* nd, const std::string& volume,
                        const std::string& file, const std::string& key) {
    auto r = nd->storage().volumes.at(volume)->ReadRecord(file, Slice(key));
    return r.status.ok() ? ToString(r.value) : "<" + r.status.ToString() + ">";
  }

  sim::Simulation sim_;
  Deployment deploy_;
  NodeDeployment* node1_;
  NodeDeployment* node2_;
  TestClient* client_;
  std::unique_ptr<FileSystem> fs_;
};

// ---------------------------------------------------------------------------
// Single-node transactions
// ---------------------------------------------------------------------------

TEST_F(TmfTest, CommitMakesUpdatesPermanentAndReleasesLocks) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "100").ok());
  EXPECT_TRUE(Insert(t, "acct", "a2", "200").ok());
  EXPECT_TRUE(End(t).ok());

  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "100");
  EXPECT_EQ(node1_->disc("$DATA1")->locks().held_count(), 0u);
  // The commit record is in the Monitor Audit Trail.
  EXPECT_EQ(node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  // Phase 1 forced the audit trail: both images are durable.
  auto* trail = node1_->storage().trails.at("$DATA1.AT").get();
  EXPECT_GE(trail->durable_lsn(), 2u);
  // The transid has left the system.
  EXPECT_EQ(node1_->tmp()->ActiveTransactionCount(), 0u);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.illegal_transitions"), 0);
}

TEST_F(TmfTest, VoluntaryAbortBacksOutAllUpdates) {
  uint64_t t0 = Begin();
  EXPECT_TRUE(Insert(t0, "acct", "a1", "100").ok());
  EXPECT_TRUE(End(t0).ok());

  uint64_t t = Begin();
  EXPECT_TRUE(Update(t, "acct", "a1", "999").ok());
  EXPECT_TRUE(Insert(t, "acct", "a2", "50").ok());
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "999");  // dirty
  EXPECT_TRUE(Abort(t).ok());

  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "100");  // restored
  EXPECT_TRUE(node1_->storage()
                  .volumes.at("$DATA1")
                  ->ReadRecord("acct", Slice("a2"))
                  .status.IsNotFound());
  EXPECT_EQ(node1_->disc("$DATA1")->locks().held_count(), 0u);
  EXPECT_EQ(node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 0);
}

TEST_F(TmfTest, EndAfterAbortIsRejected) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "1").ok());
  EXPECT_TRUE(Abort(t).ok());
  EXPECT_TRUE(End(t).IsAborted());
}

TEST_F(TmfTest, MultipleUpdatesOfOneRecordUnwindInOrder) {
  uint64_t t0 = Begin();
  EXPECT_TRUE(Insert(t0, "acct", "a1", "v0").ok());
  EXPECT_TRUE(End(t0).ok());
  uint64_t t = Begin();
  EXPECT_TRUE(Update(t, "acct", "a1", "v1").ok());
  EXPECT_TRUE(Update(t, "acct", "a1", "v2").ok());
  EXPECT_TRUE(Update(t, "acct", "a1", "v3").ok());
  EXPECT_TRUE(Abort(t).ok());
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "v0");
}

TEST_F(TmfTest, StateTransitionsFollowFigure3) {
  uint64_t t1 = Begin();
  Insert(t1, "acct", "a1", "1");
  End(t1);
  uint64_t t2 = Begin();
  Insert(t2, "acct", "a2", "2");
  Abort(t2);
  auto& stats = sim_.GetStats();
  EXPECT_GE(stats.Counter("tmf.transition.active->ending"), 1);
  EXPECT_GE(stats.Counter("tmf.transition.ending->ended"), 1);
  EXPECT_GE(stats.Counter("tmf.transition.active->aborting"), 1);
  EXPECT_GE(stats.Counter("tmf.transition.aborting->aborted"), 1);
  EXPECT_EQ(stats.Counter("tmf.illegal_transitions"), 0);
  EXPECT_GT(stats.Counter("tmf.state_broadcasts"), 0);
}

TEST_F(TmfTest, LockedReadIsRepeatableUntilCommit) {
  uint64_t t0 = Begin();
  Insert(t0, "acct", "a1", "100");
  End(t0);

  uint64_t reader = Begin();
  std::string v;
  EXPECT_TRUE(ReadLocked(reader, "acct", "a1", &v).ok());
  EXPECT_EQ(v, "100");

  // A concurrent writer times out rather than dirtying the locked record.
  uint64_t writer = Begin();
  fs_->set_lock_timeout(Millis(100));
  EXPECT_TRUE(Update(writer, "acct", "a1", "999").IsTimeout());
  fs_->set_lock_timeout(0);
  EXPECT_TRUE(ReadLocked(reader, "acct", "a1", &v).ok());
  EXPECT_EQ(v, "100");  // repeatable
  EXPECT_TRUE(End(reader).ok());
  Abort(writer);
}

TEST_F(TmfTest, FileLockHoldsOffRecordUpdatesUntilCommit) {
  uint64_t t0 = Begin();
  EXPECT_TRUE(Insert(t0, "acct", "a1", "100").ok());
  EXPECT_TRUE(End(t0).ok());

  uint64_t a = Begin();
  EXPECT_TRUE(FsOp(a, [&](FileSystem::Callback cb) {
                fs_->LockFile("acct", std::move(cb));
              }).ok());

  // B's record update in the locked file waits (well inside the 1 s
  // default lock timeout) instead of failing or writing.
  uint64_t b = Begin();
  bool updated = false;
  Status update = Status::Timeout("no callback");
  client_->set_current_transid(b);
  fs_->Update("acct", Slice("a1"), Slice("200"),
              [&](const Status& s, const Bytes&) {
                update = s;
                updated = true;
              });
  client_->set_current_transid(0);
  sim_.RunFor(Millis(300));
  EXPECT_FALSE(updated);
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "100");

  // A's commit releases the file lock; B's update is granted and commits.
  EXPECT_TRUE(End(a).ok());
  EXPECT_TRUE(updated);
  EXPECT_TRUE(update.ok()) << update.ToString();
  EXPECT_TRUE(End(b).ok());
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "200");
  EXPECT_EQ(node1_->disc("$DATA1")->locks().held_count(), 0u);
}

TEST_F(TmfTest, AlternateKeyReadFindsRecordsBySecondaryValue) {
  uint64_t t = Begin();
  for (const auto& [key, site] : {std::pair{"p1", "cupertino"},
                                  {"p2", "reston"}, {"p3", "cupertino"}}) {
    EXPECT_TRUE(Insert(t, "parts", key,
                       ToString(storage::Record().Set("site", site).Encode()))
                    .ok());
  }
  EXPECT_TRUE(End(t).ok());

  auto read_alternate = [&](const std::string& value, Bytes* keys) {
    return FsOp(0, [&](FileSystem::Callback cb) {
      fs_->ReadAlternate("parts", "site", value, Slice(), std::move(cb));
    }, keys);
  };
  Bytes keys;
  ASSERT_TRUE(read_alternate("cupertino", &keys).ok());
  std::vector<std::string> found;
  Slice in(keys);
  Slice pk;
  while (GetLengthPrefixed(&in, &pk)) found.push_back(pk.ToString());
  EXPECT_EQ(found, (std::vector<std::string>{"p1", "p3"}));

  EXPECT_TRUE(read_alternate("neufahrn", &keys).IsNotFound());
}

// ---------------------------------------------------------------------------
// Distributed transactions
// ---------------------------------------------------------------------------

TEST_F(TmfTest, DistributedCommitUpdatesBothNodes) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "100").ok());
  EXPECT_TRUE(Insert(t, "stock", "s1", "55").ok());  // remote node 2
  EXPECT_TRUE(End(t).ok());

  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "100");
  EXPECT_EQ(DiscValue(node2_, "$DATA2", "stock", "s1"), "55");
  // Remote locks released after phase 2 propagates.
  sim_.Run();
  EXPECT_EQ(node2_->disc("$DATA2")->locks().held_count(), 0u);
  // Both nodes recorded the commit.
  EXPECT_EQ(node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  EXPECT_EQ(node2_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  auto& stats = sim_.GetStats();
  EXPECT_GE(stats.Counter("tmf.remote_begins"), 1);
  EXPECT_GE(stats.Counter("tmf.phase1_sent"), 1);
  EXPECT_GE(stats.Counter("tmf.phase1_received"), 1);
  EXPECT_GE(stats.Counter("tmf.phase2_received"), 1);
  EXPECT_EQ(stats.Counter("tmf.illegal_transitions"), 0);
}

TEST_F(TmfTest, DistributedAbortBacksOutBothNodes) {
  uint64_t t0 = Begin();
  Insert(t0, "acct", "a1", "100");
  Insert(t0, "stock", "s1", "10");
  End(t0);

  uint64_t t = Begin();
  EXPECT_TRUE(Update(t, "acct", "a1", "0").ok());
  EXPECT_TRUE(Update(t, "stock", "s1", "0").ok());
  EXPECT_TRUE(Abort(t).ok());
  sim_.Run();

  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "100");
  EXPECT_EQ(DiscValue(node2_, "$DATA2", "stock", "s1"), "10");
  EXPECT_EQ(node2_->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(node2_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 0);
}

TEST_F(TmfTest, PartitionBeforeCommitAbortsEverywhere) {
  uint64_t t0 = Begin();
  Insert(t0, "stock", "s1", "10");
  End(t0);

  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "100").ok());
  EXPECT_TRUE(Update(t, "stock", "s1", "77").ok());
  deploy_.cluster().CutLink(1, 2);
  sim_.RunFor(Seconds(1));

  // Both sides abort autonomously: node 1 lost a participant; node 2 lost
  // the node that introduced the transid.
  EXPECT_EQ(node1_->tmp()->ActiveTransactionCount(), 0u);
  EXPECT_EQ(node2_->tmp()->ActiveTransactionCount(), 0u);
  EXPECT_TRUE(node1_->storage()
                  .volumes.at("$DATA1")
                  ->ReadRecord("acct", Slice("a1"))
                  .status.IsNotFound());
  EXPECT_EQ(DiscValue(node2_, "$DATA2", "stock", "s1"), "10");
  EXPECT_GE(sim_.GetStats().Counter("tmf.unilateral_aborts"), 1);
  // END-TRANSACTION is rejected after the automatic abort.
  deploy_.cluster().RestoreLink(1, 2);
  EXPECT_TRUE(End(t).IsAborted());
}

TEST_F(TmfTest, PartitionDuringPhase2HoldsRemoteLocksUntilHeal) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "100").ok());
  EXPECT_TRUE(Insert(t, "stock", "s1", "55").ok());

  // Cut the link the moment the commit record is written (phase 2 is then
  // at most in flight, not yet processed by node 2).
  auto* o = client_->CallRaw(Tmp1(), kTmfEnd,
                             EncodeTransidPayload(Transid::Unpack(t)), t);
  for (int i = 0; i < 1000 &&
                  node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)) != 1;
       ++i) {
    sim_.RunFor(Micros(500));
  }
  deploy_.cluster().CutLink(1, 2);
  sim_.RunFor(Seconds(1));

  // The home node's END completed despite the inaccessible participant.
  EXPECT_TRUE(o->done);
  EXPECT_TRUE(o->status.ok());
  EXPECT_EQ(node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  // The remote node is in doubt: locks held, phase 2 queued at home.
  EXPECT_GT(node2_->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_GT(node1_->tmp()->PendingSafeDeliveries(), 0u);

  // Heal: safe-delivery completes phase 2; remote locks release.
  deploy_.cluster().RestoreLink(1, 2);
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(node2_->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(node2_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  EXPECT_EQ(node1_->tmp()->PendingSafeDeliveries(), 0u);
  EXPECT_EQ(DiscValue(node2_, "$DATA2", "stock", "s1"), "55");
}

TEST_F(TmfTest, InDoubtTransactionResolvedByManualOverride) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "stock", "s1", "55").ok());
  client_->CallRaw(Tmp1(), kTmfEnd, EncodeTransidPayload(Transid::Unpack(t)), t);
  for (int i = 0; i < 1000 &&
                  node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)) != 1;
       ++i) {
    sim_.RunFor(Micros(500));
  }
  deploy_.cluster().CutLink(1, 2);
  sim_.RunFor(Seconds(1));

  // Node 2 is in doubt and holds locks.
  EXPECT_GT(node2_->disc("$DATA2")->locks().held_count(), 0u);

  // The operator determines the disposition on the home node (committed)
  // and forces it on the isolated node — the paper's manual override.
  auto* op_client = node2_->node()->Spawn<TestClient>(2);
  sim_.RunFor(Millis(1));
  auto* forced = op_client->CallRaw(
      net::Address(2, "$TMP"), kTmfForceDisposition,
      EncodeForceDisposition(Transid::Unpack(t), Disposition::kCommitted));
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(forced->done && forced->status.ok());
  EXPECT_EQ(node2_->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(DiscValue(node2_, "$DATA2", "stock", "s1"), "55");
}

// ---------------------------------------------------------------------------
// TMP takeover
// ---------------------------------------------------------------------------

// Sends END, lets `reach_kill_instant` advance the simulation to the kill
// instant (returning whether it got there), kills the TMP primary's CPU
// (cpu 3), and checks that the new primary finishes the commit exactly once
// after `mat_forces` MAT writes in all.
void TmfTest::CheckTmpTakeoverResumesCommit(
    const std::function<bool(const Transid&)>& reach_kill_instant,
    int64_t mat_forces) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "100").ok());
  const Transid transid = Transid::Unpack(t);
  const auto& mat = node1_->storage().monitor_trail;
  const size_t mat_before = mat.size();
  os::CallOptions opt;
  opt.timeout = Seconds(2);
  opt.retries = 3;
  auto* o = client_->CallRaw(Tmp1(), kTmfEnd, EncodeTransidPayload(transid),
                             t, opt);
  EXPECT_TRUE(reach_kill_instant(transid));
  node1_->node()->FailCpu(3);
  sim_.RunFor(Seconds(8));
  ASSERT_TRUE(o->done);
  EXPECT_TRUE(o->status.ok());
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "100");
  EXPECT_EQ(mat.Lookup(transid), 1);
  // The only transaction in flight: one completion record, not two.
  EXPECT_EQ(mat.size() - mat_before, 1u);
  const sim::Stats& stats = sim_.GetStats();
  EXPECT_GE(stats.Counter("os.takeovers"), 1);
  EXPECT_EQ(stats.Counter("tmf.takeover_resumed_commits"), 1);
  EXPECT_EQ(stats.Counter("tmf.mat_forces"), mat_forces);
  EXPECT_EQ(node1_->disc("$DATA1")->locks().held_count(), 0u);
}

TEST_F(TmfTest, TmpTakeoverResumesCommit) {
  // Kill during phase 1: only the new primary writes the commit record.
  CheckTmpTakeoverResumesCommit(
      [this](const Transid&) {
        sim_.RunFor(Millis(2));
        return true;
      },
      /*mat_forces=*/1);
}

TEST_F(TmfTest, TmpTakeoverDuringMatWriteResumesCommit) {
  // Kill while the commit record's MAT write is in flight. The group-commit
  // state is volatile: that write dies with the primary, and the new
  // primary's re-run of phase 1 forces the record once more.
  CheckTmpTakeoverResumesCommit(
      [this](const Transid& transid) {
        for (int i = 0;
             i < 1000 && sim_.GetStats().Counter("tmf.mat_forces") < 1; ++i) {
          sim_.RunFor(Micros(100));
        }
        return sim_.GetStats().Counter("tmf.mat_forces") == 1 &&
               node1_->storage().monitor_trail.Lookup(transid) == -1;
      },
      /*mat_forces=*/2);
}

TEST_F(TmfTest, DiscTakeoverTransparentToTransaction) {
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "acct", "a1", "100").ok());
  // DISCPROCESS pair for $DATA1 is on CPUs (1,2); kill the primary.
  node1_->node()->FailCpu(1);
  sim_.RunFor(Millis(50));
  EXPECT_TRUE(Update(t, "acct", "a1", "150").ok());
  EXPECT_TRUE(End(t).ok());
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "150");
}

// ---------------------------------------------------------------------------
// ROLLFORWARD
// ---------------------------------------------------------------------------

TEST_F(TmfTest, RollforwardRecoversCommittedWorkAfterTotalNodeFailure) {
  // Commit a baseline, archive the volume.
  uint64_t t0 = Begin();
  EXPECT_TRUE(Insert(t0, "acct", "a1", "100").ok());
  EXPECT_TRUE(End(t0).ok());
  node1_->ArchiveVolumes();

  // More committed work, plus an uncommitted transaction in flight.
  uint64_t t1 = Begin();
  EXPECT_TRUE(Update(t1, "acct", "a1", "200").ok());
  EXPECT_TRUE(Insert(t1, "acct", "a2", "42").ok());
  EXPECT_TRUE(End(t1).ok());
  uint64_t t2 = Begin();
  EXPECT_TRUE(Update(t2, "acct", "a1", "666").ok());  // never commits

  // Total node failure: unforced data and audit state are lost.
  deploy_.CrashNode(1);
  sim_.RunFor(Millis(100));
  std::vector<RollforwardReport> reports;
  deploy_.RecoverNode(1, [&](const std::vector<RollforwardReport>& r) {
    reports = r;
  });
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(reports.size(), 1u);
  const RollforwardReport& report = reports[0];
  EXPECT_EQ(report.redo_applied, 2u);  // t1's two images
  EXPECT_EQ(report.txns_committed, 1u);
  // t2's unforced image died with the node: nothing of it to discard.
  EXPECT_EQ(report.redo_considered, 2u);
  EXPECT_EQ(report.txns_discarded, 0u);
  EXPECT_EQ(report.negotiated, 0u);

  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a1"), "200");
  EXPECT_EQ(DiscValue(node1_, "$DATA1", "acct", "a2"), "42");
  (void)t2;
}

TEST_F(TmfTest, RecoverNodeRollsARelativeFileForward) {
  auto slot = [](uint64_t n) { return ToString(storage::EncodeRecnum(n)); };
  uint64_t t0 = Begin();
  EXPECT_TRUE(Insert(t0, "slots", slot(1), "one").ok());
  EXPECT_TRUE(Insert(t0, "slots", slot(2), "two").ok());
  EXPECT_TRUE(End(t0).ok());
  node1_->ArchiveVolumes();

  // Committed after the archive: ROLLFORWARD must redo these.
  uint64_t t1 = Begin();
  EXPECT_TRUE(Update(t1, "slots", slot(1), "uno").ok());
  EXPECT_TRUE(Insert(t1, "slots", slot(7), "seven").ok());
  EXPECT_TRUE(FsOp(t1, [&](FileSystem::Callback cb) {
                fs_->Delete("slots", Slice(slot(2)), std::move(cb));
              }).ok());
  EXPECT_TRUE(End(t1).ok());
  uint64_t t2 = Begin();
  EXPECT_TRUE(Update(t2, "slots", slot(7), "never").ok());  // never commits

  deploy_.CrashNode(1);
  sim_.RunFor(Millis(100));
  std::vector<RollforwardReport> reports;
  deploy_.RecoverNode(1, [&](const std::vector<RollforwardReport>& r) {
    reports = r;
  });
  sim_.RunFor(Seconds(5));
  ASSERT_EQ(reports.size(), 1u);

  std::map<uint64_t, std::string> slots;
  node1_->storage().volumes.at("$DATA1")->Find("slots")->ForEach(
      [&](const Slice& key, const Slice& value) {
        uint64_t n = 0;
        EXPECT_TRUE(storage::DecodeRecnum(key, &n));
        slots[n] = value.ToString();
      });
  EXPECT_EQ(slots, (std::map<uint64_t, std::string>{{1, "uno"}, {7, "seven"}}));
}

TEST_F(TmfTest, RollforwardNegotiatesEndingTransactions) {
  // A distributed transaction reaches phase 1 on node 2 (audit forced),
  // commits at home, but node 2 dies before phase 2: its recovery must ask
  // the home TMP for the disposition over the network.
  node2_->ArchiveVolumes();  // from before the transaction: rebuild it all
  uint64_t t = Begin();
  EXPECT_TRUE(Insert(t, "stock", "s1", "55").ok());
  client_->CallRaw(Tmp1(), kTmfEnd, EncodeTransidPayload(Transid::Unpack(t)), t);
  for (int i = 0; i < 1000 &&
                  node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)) != 1;
       ++i) {
    sim_.RunFor(Micros(500));
  }
  EXPECT_EQ(node1_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);

  deploy_.CrashNode(2);
  sim_.RunFor(Millis(100));
  // ROLLFORWARD runs before node 2's services restart, so the home's
  // phase-2 retry cannot deliver the commit record first.
  const int64_t served = sim_.GetStats().Counter("tmf.resolves_served");
  std::vector<RollforwardReport> reports;
  deploy_.RecoverNode(2, [&](const std::vector<RollforwardReport>& r) {
    reports = r;
  });
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(reports.size(), 1u);
  // Node 2 never wrote its own commit record (phase 2 didn't arrive), so
  // the disposition was negotiated: one resolve query at the home TMP.
  EXPECT_EQ(reports[0].negotiated, 1u);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.resolves_served") - served, 1);
  EXPECT_EQ(reports[0].txns_committed, 1u);
  EXPECT_EQ(DiscValue(node2_, "$DATA2", "stock", "s1"), "55");
  EXPECT_EQ(node2_->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
}

// ---------------------------------------------------------------------------
// Transaction tree: home -> B -> C, where B introduces the transid to C
// ---------------------------------------------------------------------------

class TmfTreeTest : public ::testing::Test {
 protected:
  TmfTreeTest() : sim_(31), deploy_(&sim_) {
    sim_.GetTrace().set_enabled(true);  // Deliveries() reads the trace
    for (net::NodeId id : {1, 2, 3}) {
      NodeSpec spec;
      spec.id = id;
      spec.volumes = {VolumeSpec{Volume(id), {FileSpec{File(id)}}, {}}};
      deploy_.AddNode(spec);
    }
    deploy_.LinkAll();
    for (net::NodeId id : {1, 2, 3}) {
      EXPECT_TRUE(deploy_.DefineFile(File(id), id, Volume(id)).ok());
    }
    // A requester on the home node, and one on B that works on C's file
    // under the same transid (a server process B runs for the home).
    home_ = deploy_.GetNode(1)->node()->Spawn<TestClient>(2);
    home_fs_ = std::make_unique<FileSystem>(home_, &deploy_.catalog());
    mid_ = deploy_.GetNode(2)->node()->Spawn<TestClient>(2);
    mid_fs_ = std::make_unique<FileSystem>(mid_, &deploy_.catalog());
    sim_.Run();
  }

  static std::string Volume(net::NodeId id) {
    return "$DATA" + std::to_string(id);
  }
  static std::string File(net::NodeId id) { return "f" + std::to_string(id); }

  Status Call(uint32_t tag, uint64_t transid) {
    auto* o = home_->CallRaw(net::Address(1, "$TMP"), tag,
                             EncodeTransidPayload(Transid::Unpack(transid)),
                             transid);
    sim_.Run();
    EXPECT_TRUE(o->done);
    return o->status;
  }

  uint64_t Begin() {
    auto* o = home_->CallRaw(net::Address(1, "$TMP"), kTmfBegin, {});
    sim_.Run();
    auto t = DecodeTransidPayload(Slice(o->payload));
    EXPECT_TRUE(t.ok());
    return t.ok() ? t->Pack() : 0;
  }

  /// Writes `value` at key "k" of node `id`'s file from `client`.
  Status Write(TestClient* client, FileSystem* fs, uint64_t transid,
               net::NodeId id, const std::string& value, bool insert) {
    Status result = Status::Timeout("no callback");
    client->set_current_transid(transid);
    auto cb = [&](const Status& s, const Bytes&) { result = s; };
    if (insert) {
      fs->Insert(File(id), Slice("k"), Slice(value), cb);
    } else {
      fs->Update(File(id), Slice("k"), Slice(value), cb);
    }
    client->set_current_transid(0);
    sim_.Run();
    return result;
  }

  /// Runs one transaction over the three-level tree: the home writes on
  /// nodes 1 and 2, and B's requester writes on node 3.
  uint64_t RunTree(const std::string& value, bool insert) {
    uint64_t t = Begin();
    EXPECT_TRUE(Write(home_, home_fs_.get(), t, 1, value, insert).ok());
    EXPECT_TRUE(Write(home_, home_fs_.get(), t, 2, value, insert).ok());
    EXPECT_TRUE(Write(mid_, mid_fs_.get(), t, 3, value, insert).ok());
    return t;
  }

  std::string Value(net::NodeId id) {
    auto r = deploy_.GetNode(id)->storage().volumes.at(Volume(id))->ReadRecord(
        File(id), Slice("k"));
    return r.status.ok() ? ToString(r.value) : "<" + r.status.ToString() + ">";
  }

  /// Safe deliveries of `tag` queued for transid `t`, as (from, to) nodes.
  std::vector<std::pair<uint16_t, uint32_t>> Deliveries(uint64_t t,
                                                        uint32_t tag) {
    std::vector<std::pair<uint16_t, uint32_t>> out;
    const std::vector<sim::TraceEvent> events = sim_.GetTrace().Events(t);
    EXPECT_FALSE(events.empty()) << "no trace recorded for " << t;
    for (const auto& e : events) {
      if (e.kind == sim::TraceEventKind::kPhase2Queued && e.a == tag) {
        out.emplace_back(e.node, e.b);
      }
    }
    return out;
  }

  void ExpectResolvedEverywhere(uint64_t t, int disposition) {
    for (net::NodeId id : {1, 2, 3}) {
      NodeDeployment* nd = deploy_.GetNode(id);
      EXPECT_EQ(nd->storage().monitor_trail.Lookup(Transid::Unpack(t)),
                disposition)
          << "node " << id;
      EXPECT_EQ(nd->disc(Volume(id))->locks().held_count(), 0u) << "node " << id;
      EXPECT_EQ(nd->tmp()->ActiveTransactionCount(), 0u) << "node " << id;
    }
    EXPECT_EQ(sim_.GetStats().Counter("tmf.illegal_transitions"), 0);
  }

  sim::Simulation sim_;
  Deployment deploy_;
  TestClient* home_;
  TestClient* mid_;
  std::unique_ptr<FileSystem> home_fs_;
  std::unique_ptr<FileSystem> mid_fs_;
};

TEST_F(TmfTreeTest, Phase2ReachesTheGrandchildThroughTheIntermediateNode) {
  uint64_t t = RunTree("v1", /*insert=*/true);
  EXPECT_TRUE(Call(kTmfEnd, t).ok());
  sim_.Run();

  for (net::NodeId id : {1, 2, 3}) EXPECT_EQ(Value(id), "v1") << "node " << id;
  ExpectResolvedEverywhere(t, 1);
  // The home knows only B; B forwards phase 2 to C.
  using Hop = std::pair<uint16_t, uint32_t>;
  EXPECT_EQ(Deliveries(t, kTmfPhase2), (std::vector<Hop>{{1, 2}, {2, 3}}));
}

TEST_F(TmfTreeTest, AbortReachesTheGrandchildThroughTheIntermediateNode) {
  uint64_t t0 = RunTree("v0", /*insert=*/true);
  EXPECT_TRUE(Call(kTmfEnd, t0).ok());
  sim_.Run();

  uint64_t t = RunTree("v1", /*insert=*/false);
  EXPECT_EQ(Value(3), "v1");  // dirty at C until the abort arrives
  EXPECT_TRUE(Call(kTmfAbort, t).ok());
  sim_.Run();

  for (net::NodeId id : {1, 2, 3}) EXPECT_EQ(Value(id), "v0") << "node " << id;
  ExpectResolvedEverywhere(t, 0);
  using Hop = std::pair<uint16_t, uint32_t>;
  EXPECT_EQ(Deliveries(t, kTmfAbortTxn), (std::vector<Hop>{{1, 2}, {2, 3}}));
}

}  // namespace
}  // namespace encompass::tmf
