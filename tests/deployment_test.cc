// Tests for the Deployment bootstrap and the ServiceGuardian repair layer:
// backup re-attachment after takeover, pair respawn after double failure,
// node crash/restart cycles, and configuration errors.

#include <gtest/gtest.h>

#include "apps/banking/banking.h"
#include "encompass/deployment.h"
#include "test_util.h"
#include "tmf/file_system.h"

namespace encompass::app {
namespace {

using apps::banking::SeedAccounts;
using testutil::TestClient;

class DeploymentTest : public ::testing::Test {
 protected:
  DeploymentTest() : sim_(61), deploy_(&sim_) {
    NodeSpec spec;
    spec.id = 1;
    spec.node_config.num_cpus = 4;
    spec.volumes = {VolumeSpec{"$DATA1", {FileSpec{"acct"}}, {}}};
    node_ = deploy_.AddNode(spec);
    EXPECT_TRUE(deploy_.DefineFile("acct", 1, "$DATA1").ok());
    sim_.Run();
  }

  /// Counts live members of the named pair (primary found via the name,
  /// backup via its peer pointer).
  int PairMembers(const std::string& name) {
    net::Pid pid = node_->node()->LookupName(name);
    if (pid == 0) return 0;
    auto* p = dynamic_cast<os::PairedProcess*>(node_->node()->Find(pid));
    if (p == nullptr) return 0;
    return p->HasBackup() ? 2 : 1;
  }

  sim::Simulation sim_;
  Deployment deploy_;
  NodeDeployment* node_;
};

TEST_F(DeploymentTest, ServicesComeUpAsPairs) {
  for (const char* name : {"$AUD.$DATA1", "$DATA1", "$BACKOUT", "$TMP"}) {
    EXPECT_EQ(PairMembers(name), 2) << name;
  }
}

TEST_F(DeploymentTest, GuardianReattachesBackupAfterTakeover) {
  // The DISCPROCESS pair lives on CPUs (1,2); kill the primary's CPU.
  node_->node()->FailCpu(1);
  sim_.RunFor(Millis(10));
  EXPECT_EQ(PairMembers("$DATA1"), 1);  // exposed after takeover
  node_->node()->ReloadCpu(1);
  sim_.RunFor(Millis(200));
  EXPECT_EQ(PairMembers("$DATA1"), 2);  // guardian restored redundancy
  EXPECT_GT(sim_.GetStats().Counter("deploy.backup_reattached"), 0);
}

TEST_F(DeploymentTest, GuardianReattachesEvenWithoutReload) {
  // Three CPUs remain after the failure — the guardian can restore the
  // pair immediately on a surviving CPU.
  node_->node()->FailCpu(2);  // disc backup's CPU
  sim_.RunFor(Millis(200));
  EXPECT_EQ(PairMembers("$DATA1"), 2);
}

TEST_F(DeploymentTest, GuardianRespawnsFullyDeadPair) {
  // Kill both CPUs of the TMP pair (3 and 0) in quick succession — a
  // multiple-module failure. The guardian respawns a fresh pair.
  node_->node()->FailCpu(3);
  node_->node()->FailCpu(0);
  sim_.RunFor(Millis(500));
  EXPECT_GE(PairMembers("$TMP"), 1);
  EXPECT_GT(sim_.GetStats().Counter("deploy.pair_respawns"), 0);
  // The respawned TMP serves BEGINs again.
  auto* client = node_->node()->Spawn<TestClient>(1);
  sim_.RunFor(Millis(10));
  auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  sim_.Run();
  EXPECT_TRUE(begin->done && begin->status.ok());
}

TEST_F(DeploymentTest, RespawnedTmpNeverReissuesALiveTransid) {
  // A TMP pair respawned on a live node is a new incarnation: it must not
  // reissue the transid of a transaction that is still live at the
  // DISCPROCESS (still owning its lock) though no MAT record names it.
  auto* client = node_->node()->Spawn<TestClient>(2);
  tmf::FileSystem fs(client, &deploy_.catalog());
  sim_.Run();
  auto begin = [&]() {
    auto* o = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    sim_.Run();
    EXPECT_TRUE(o->done && o->status.ok());
    return tmf::DecodeTransidPayload(Slice(o->payload)).value();
  };
  auto insert = [&](const Transid& t, const char* key) {
    bool ok = false;
    client->set_current_transid(t.Pack());
    fs.Insert("acct", Slice(key), Slice("v"),
              [&ok](const Status& s, const Bytes&) { ok = s.ok(); });
    client->set_current_transid(0);
    sim_.Run();
    return ok;
  };
  const Transid committed = begin();
  ASSERT_TRUE(insert(committed, "a"));
  auto* end = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                              tmf::EncodeTransidPayload(committed),
                              committed.Pack());
  sim_.Run();
  ASSERT_TRUE(end->done && end->status.ok());
  const Transid live = begin();
  ASSERT_TRUE(insert(live, "b"));

  // Both CPUs of the TMP pair (3 and 0) fail; the guardian respawns it.
  node_->node()->FailCpu(3);
  node_->node()->FailCpu(0);
  sim_.RunFor(Millis(300));
  ASSERT_GT(sim_.GetStats().Counter("deploy.pair_respawns"), 0);
  ASSERT_TRUE(node_->disc("$DATA1")->locks().HoldsAny(live));
  const Transid next = begin();
  EXPECT_NE(next.Pack(), live.Pack());
  EXPECT_GT(next.seq, live.seq);
}

TEST_F(DeploymentTest, TransactionsWorkAfterRepeatedFailReloadCycles) {
  SeedAccounts(node_->storage().volumes.at("$DATA1").get(), "acct", 5, 100);
  auto* client = node_->node()->Spawn<TestClient>(2);
  tmf::FileSystem fs(client, &deploy_.catalog());
  sim_.Run();

  // The client itself lives on CPU 2; cycle failures over the other CPUs
  // (a real terminal user would be on a different node anyway).
  const int cycle[] = {0, 1, 3, 0};
  for (int round = 0; round < 4; ++round) {
    int cpu = cycle[round];
    node_->node()->FailCpu(cpu);
    sim_.RunFor(Millis(300));
    node_->node()->ReloadCpu(cpu);
    sim_.RunFor(Millis(300));

    auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    sim_.Run();
    ASSERT_TRUE(begin->done && begin->status.ok()) << "round " << round;
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    bool ok = false;
    client->set_current_transid(transid->Pack());
    fs.Update("acct", Slice(apps::banking::AccountKey(0)),
              Slice(storage::Record()
                        .Set("balance", std::to_string(round))
                        .Encode()),
              [&ok](const Status& s, const Bytes&) { ok = s.ok(); });
    client->set_current_transid(0);
    sim_.Run();
    ASSERT_TRUE(ok) << "round " << round;
    auto* end = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                tmf::EncodeTransidPayload(*transid),
                                transid->Pack());
    sim_.Run();
    ASSERT_TRUE(end->done && end->status.ok()) << "round " << round;
  }
}

TEST_F(DeploymentTest, CrashDropsVolatileRestartRespawns) {
  auto* vol = node_->storage().volumes.at("$DATA1").get();
  vol->Mutate("acct", storage::MutationOp::kInsert, Slice("k"), Slice("flushed"));
  vol->Flush();
  vol->Mutate("acct", storage::MutationOp::kUpdate, Slice("k"), Slice("volatile"));
  deploy_.CrashNode(1);
  sim_.RunFor(Millis(100));
  EXPECT_EQ(ToString(vol->ReadRecord("acct", Slice("k")).value), "flushed");
  EXPECT_TRUE(node_->node()->Dead());
  deploy_.RecoverNode(1);  // never archived: no rebuild, services respawn
  sim_.RunFor(Millis(100));
  EXPECT_EQ(ToString(vol->ReadRecord("acct", Slice("k")).value), "flushed");
  EXPECT_EQ(PairMembers("$TMP"), 2);
  EXPECT_EQ(PairMembers("$DATA1"), 2);
}

TEST_F(DeploymentTest, DefineFileValidation) {
  EXPECT_TRUE(deploy_.DefineFile("nope", 1, "$DATA1").IsNotFound());
  EXPECT_TRUE(deploy_.DefineFile("acct", 9, "$DATA1").IsNotFound());
  EXPECT_TRUE(deploy_.DefineFile("acct", 1, "$NOPE").IsNotFound());
  EXPECT_TRUE(deploy_.DefineFile("acct", 1, "$DATA1").IsAlreadyExists());
}

TEST_F(DeploymentTest, TrailNamingConvention) {
  EXPECT_EQ(NodeDeployment::TrailName("$DATA1"), "$DATA1.AT");
  EXPECT_EQ(node_->storage().trails.count("$DATA1.AT"), 1u);
}

}  // namespace
}  // namespace encompass::app
