// Tests for the four-site manufacturing application (the paper's Figure 4):
// master-node-per-record global updates, suspense-file deferred
// propagation, node autonomy under partition, and post-heal convergence.

#include <gtest/gtest.h>

#include "apps/manufacturing/manufacturing.h"
#include "encompass/tcp.h"
#include "test_util.h"

namespace encompass::apps::manufacturing {
namespace {

using app::Deployment;
using app::FileSpec;
using app::NodeSpec;
using app::VolumeSpec;
using testutil::TestClient;

const std::vector<net::NodeId> kNodes = {1, 2, 3, 4};

/// Seeds one local record on one node, straight into its volume.
void SeedLocalRecord(Deployment* deploy, net::NodeId node,
                     const std::string& file, const std::string& key,
                     const std::string& value) {
  storage::Record rec;
  rec.Set("val", value);
  auto* vol = deploy->GetNode(node)->storage().volumes.at(MfgVolume(node)).get();
  vol->Mutate(CopyName(file, node), storage::MutationOp::kInsert, Slice(key),
              Slice(rec.Encode()));
  vol->Flush();
}

/// Terminal program for local work at a site: update a stock record.
app::ScreenProgram MakeLocalStockProgram(net::NodeId node, int num_items) {
  app::ScreenProgram p("local-stock");
  p.Accept([num_items](app::Fields& f, Random& rng) {
     f["item"] = "item" + std::to_string(rng.Uniform(num_items));
     f["qty"] = std::to_string(rng.Uniform(100));
   })
      .BeginTransaction()
      .Send(node, GlobalServerClass(),
            [](const app::Fields& f) {
              storage::Record r;
              r.Set("op", "lupdate")
                  .Set("file", "stock")
                  .Set("key", f.at("item"))
                  .Set("val", f.at("qty"));
              return r.Encode();
            })
      .EndTransaction();
  return p;
}

/// Terminal program for a (rare) global update: set a new value on a global
/// record through the master-node protocol.
app::ScreenProgram MakeGlobalUpdateProgram(net::NodeId node,
                                           const std::string& file,
                                           const std::string& key) {
  app::ScreenProgram p("global-update");
  p.Accept([](app::Fields& f, Random& rng) {
     f["val"] = "rev" + std::to_string(rng.Uniform(1000000));
   })
      .BeginTransaction()
      .Send(node, GlobalServerClass(),
            [file, key](const app::Fields& f) {
              storage::Record r;
              r.Set("op", "gupdate")
                  .Set("file", file)
                  .Set("key", key)
                  .Set("val", f.at("val"));
              return r.Encode();
            })
      .EndTransaction();
  return p;
}

class ManufacturingTest : public ::testing::Test {
 protected:
  ManufacturingTest() : sim_(47), deploy_(&sim_) {
    for (net::NodeId n : kNodes) {
      NodeSpec spec;
      spec.id = n;
      spec.node_config.num_cpus = 4;
      spec.volumes = {VolumeSpec{MfgVolume(n), {}, {}}};
      deploy_.AddNode(spec);
    }
    deploy_.LinkAll();
    EXPECT_TRUE(DeployManufacturing(&deploy_, kNodes).ok());
    for (net::NodeId n : kNodes) {
      AddMfgServerClass(&deploy_, n, kNodes);
      monitors_[n] = AddSuspenseMonitor(&deploy_, n, kNodes);
      clients_[n] = deploy_.GetNode(n)->node()->Spawn<TestClient>(2);
    }
    sim_.RunFor(Millis(10));
  }

  /// Runs BEGIN / SEND gupdate / END from a client on `via`.
  Status GlobalUpdate(net::NodeId via, const std::string& file,
                      const std::string& key, const std::string& val) {
    TestClient* client = clients_[via];
    auto* begin = client->CallRaw(net::Address(via, "$TMP"), tmf::kTmfBegin, {});
    sim_.RunFor(Millis(5));
    if (!begin->done || !begin->status.ok()) return Status::Unavailable("begin");
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    if (!transid.ok()) return transid.status();

    storage::Record req;
    req.Set("op", "gupdate").Set("file", file).Set("key", key).Set("val", val);
    auto* send = client->CallRaw(net::Address(via, GlobalServerClass()),
                                 app::kServerRequest, req.Encode(),
                                 transid->Pack());
    sim_.RunFor(Seconds(2));
    if (!send->done) return Status::Timeout("send");
    if (!send->status.ok()) {
      auto* abort = client->CallRaw(net::Address(via, "$TMP"), tmf::kTmfAbort,
                                    tmf::EncodeTransidPayload(*transid),
                                    transid->Pack());
      sim_.RunFor(Seconds(1));
      (void)abort;
      return send->status;
    }
    auto* end = client->CallRaw(net::Address(via, "$TMP"), tmf::kTmfEnd,
                                tmf::EncodeTransidPayload(*transid),
                                transid->Pack());
    sim_.RunFor(Seconds(1));
    if (!end->done) return Status::Timeout("end");
    return end->status;
  }

  Status LocalUpdate(net::NodeId node, const std::string& file,
                     const std::string& key, const std::string& val) {
    TestClient* client = clients_[node];
    auto* begin = client->CallRaw(net::Address(node, "$TMP"), tmf::kTmfBegin, {});
    sim_.RunFor(Millis(5));
    if (!begin->done || !begin->status.ok()) return Status::Unavailable("begin");
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    storage::Record req;
    req.Set("op", "lupdate").Set("file", file).Set("key", key).Set("val", val);
    auto* send = client->CallRaw(net::Address(node, GlobalServerClass()),
                                 app::kServerRequest, req.Encode(),
                                 transid->Pack());
    sim_.RunFor(Seconds(1));
    if (!send->done || !send->status.ok()) return Status::IoError("send");
    auto* end = client->CallRaw(net::Address(node, "$TMP"), tmf::kTmfEnd,
                                tmf::EncodeTransidPayload(*transid),
                                transid->Pack());
    sim_.RunFor(Seconds(1));
    return end->done ? end->status : Status::Timeout("end");
  }

  /// Sends one request to `node`'s server class, inside BEGIN/END when
  /// `in_txn`; returns the server's reply.
  testutil::TestClient::Outcome Serve(net::NodeId node,
                                      const storage::Record& req, bool in_txn) {
    TestClient* client = clients_[node];
    uint64_t transid = 0;
    if (in_txn) {
      auto* begin = client->CallRaw(net::Address(node, "$TMP"), tmf::kTmfBegin, {});
      sim_.RunFor(Millis(5));
      auto t = tmf::DecodeTransidPayload(Slice(begin->payload));
      EXPECT_TRUE(t.ok());
      if (t.ok()) transid = t->Pack();
    }
    auto* send = client->CallRaw(net::Address(node, GlobalServerClass()),
                                 app::kServerRequest, req.Encode(), transid);
    sim_.RunFor(Seconds(1));
    EXPECT_TRUE(send->done);
    if (in_txn) {
      auto* end = client->CallRaw(net::Address(node, "$TMP"), tmf::kTmfEnd,
                                  tmf::EncodeTransidPayload(Transid::Unpack(transid)),
                                  transid);
      sim_.RunFor(Seconds(1));
      EXPECT_TRUE(end->done && end->status.ok());
    }
    return *send;
  }

  sim::Simulation sim_;
  Deployment deploy_;
  std::map<net::NodeId, SuspenseMonitor*> monitors_;
  std::map<net::NodeId, TestClient*> clients_;
};

TEST_F(ManufacturingTest, UpdateAtMasterPropagatesToAllCopies) {
  SeedGlobalRecord(&deploy_, kNodes, "item-master", "X100", "v1", /*master=*/1);
  EXPECT_TRUE(GlobalUpdate(1, "item-master", "X100", "v2").ok());
  // The master copy is updated synchronously (deferred updates for the
  // other copies were enqueued in the same transaction; the suspense
  // monitor drains them asynchronously).
  EXPECT_EQ(*CopyValue(&deploy_, 1, "item-master", "X100"), "v2");
  sim_.RunFor(Seconds(5));
  EXPECT_TRUE(Converged(&deploy_, kNodes, "item-master", "X100"));
  EXPECT_EQ(*CopyValue(&deploy_, 4, "item-master", "X100"), "v2");
  EXPECT_EQ(SuspenseDepth(&deploy_, 1), 0u);
  EXPECT_EQ(monitors_[1]->applied(), 3u);
}

TEST_F(ManufacturingTest, NonMasterNodeForwardsToMaster) {
  SeedGlobalRecord(&deploy_, kNodes, "bom", "B7", "rev1", /*master=*/2);
  // Originates at node 3; the record's master is node 2.
  EXPECT_TRUE(GlobalUpdate(3, "bom", "B7", "rev2").ok());
  EXPECT_EQ(*CopyValue(&deploy_, 2, "bom", "B7"), "rev2");  // master updated
  sim_.RunFor(Seconds(5));
  EXPECT_TRUE(Converged(&deploy_, kNodes, "bom", "B7"));
  EXPECT_EQ(SuspenseDepth(&deploy_, 2), 0u);  // master's queue fully drained
}

TEST_F(ManufacturingTest, PartitionAccumulatesDeferredUpdatesThenConverges) {
  SeedGlobalRecord(&deploy_, kNodes, "po-header", "PO1", "open", /*master=*/1);
  deploy_.cluster().IsolateNode(4);
  sim_.RunFor(Millis(100));

  EXPECT_TRUE(GlobalUpdate(1, "po-header", "PO1", "approved").ok());
  EXPECT_TRUE(GlobalUpdate(1, "po-header", "PO1", "shipped").ok());
  sim_.RunFor(Seconds(5));

  // Reachable replicas converged; the disconnected node is stale and its
  // deferred updates accumulate at the master.
  EXPECT_EQ(*CopyValue(&deploy_, 2, "po-header", "PO1"), "shipped");
  EXPECT_EQ(*CopyValue(&deploy_, 3, "po-header", "PO1"), "shipped");
  EXPECT_EQ(*CopyValue(&deploy_, 4, "po-header", "PO1"), "open");
  EXPECT_EQ(SuspenseDepth(&deploy_, 1), 2u);  // both updates for node 4

  // "When the network is re-connected and all accumulated updates are
  // applied, global file copies converge to a consistent state."
  deploy_.cluster().ReconnectNode(4);
  sim_.RunFor(Seconds(10));
  EXPECT_TRUE(Converged(&deploy_, kNodes, "po-header", "PO1"));
  EXPECT_EQ(*CopyValue(&deploy_, 4, "po-header", "PO1"), "shipped");
  EXPECT_EQ(SuspenseDepth(&deploy_, 1), 0u);
}

TEST_F(ManufacturingTest, DeferredUpdatesApplyInSuspenseFileOrder) {
  SeedGlobalRecord(&deploy_, kNodes, "item-master", "Y1", "s0", /*master=*/1);
  deploy_.cluster().IsolateNode(4);
  sim_.RunFor(Millis(100));
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(GlobalUpdate(1, "item-master", "Y1", "s" + std::to_string(i)).ok());
  }
  sim_.RunFor(Seconds(3));
  EXPECT_EQ(SuspenseDepth(&deploy_, 1), 5u);
  deploy_.cluster().ReconnectNode(4);
  sim_.RunFor(Seconds(15));
  // In-order application means the final state is the LAST update.
  EXPECT_EQ(*CopyValue(&deploy_, 4, "item-master", "Y1"), "s5");
  EXPECT_EQ(SuspenseDepth(&deploy_, 1), 0u);
}

TEST_F(ManufacturingTest, UpdateFailsWhenMasterUnavailable) {
  SeedGlobalRecord(&deploy_, kNodes, "item-master", "Z9", "v1", /*master=*/1);
  deploy_.cluster().IsolateNode(1);  // the master vanishes
  sim_.RunFor(Millis(100));
  Status s = GlobalUpdate(2, "item-master", "Z9", "v2");
  EXPECT_FALSE(s.ok());
  // No replica changed.
  EXPECT_EQ(*CopyValue(&deploy_, 2, "item-master", "Z9"), "v1");
  EXPECT_EQ(*CopyValue(&deploy_, 3, "item-master", "Z9"), "v1");
}

TEST_F(ManufacturingTest, NodeAutonomyLocalWorkContinuesDuringPartition) {
  SeedLocalRecord(&deploy_, 2, "stock", "item1", "10");
  deploy_.cluster().IsolateNode(4);
  sim_.RunFor(Millis(100));
  // Node 2 keeps processing local transactions despite the partition.
  EXPECT_TRUE(LocalUpdate(2, "stock", "item1", "25").ok());
  auto* vol = deploy_.GetNode(2)->storage().volumes.at(MfgVolume(2)).get();
  auto r = vol->ReadRecord(CopyName("stock", 2), Slice("item1"));
  ASSERT_TRUE(r.status.ok());
  auto rec = storage::Record::Decode(Slice(r.value));
  EXPECT_EQ(rec->Get("val"), "25");
}

TEST_F(ManufacturingTest, MixedTcpWorkloadConvergesEverywhere) {
  SeedGlobalRecord(&deploy_, kNodes, "item-master", "M1", "v0", /*master=*/2);
  for (net::NodeId n : kNodes) {
    for (int i = 0; i < 8; ++i) {
      SeedLocalRecord(&deploy_, n, "stock", "item" + std::to_string(i), "0");
    }
  }
  std::vector<std::unique_ptr<app::ScreenProgram>> programs;
  std::vector<app::Tcp*> tcps;
  for (net::NodeId n : kNodes) {
    auto local = std::make_unique<app::ScreenProgram>(MakeLocalStockProgram(n, 8));
    auto global = std::make_unique<app::ScreenProgram>(
        MakeGlobalUpdateProgram(n, "item-master", "M1"));
    app::TcpConfig cfg;
    cfg.programs = {{"local", local.get()}, {"global", global.get()}};
    cfg.restart_limit = 50;
    auto pair = os::SpawnPair<app::Tcp>(deploy_.GetNode(n)->node(),
                                        "$TCP" + std::to_string(n), 2, 3, cfg);
    programs.push_back(std::move(local));
    programs.push_back(std::move(global));
    tcps.push_back(pair.primary);
    sim_.RunFor(Millis(1));
    for (int t = 0; t < 3; ++t) {
      ASSERT_TRUE(pair.primary->AttachTerminal(
          "t" + std::to_string(n) + "-" + std::to_string(t), "local", 10));
    }
    ASSERT_TRUE(pair.primary->AttachTerminal("g" + std::to_string(n), "global", 2));
  }
  sim_.RunFor(Seconds(60));
  uint64_t completed = 0, failed = 0;
  for (auto* tcp : tcps) {
    completed += tcp->programs_completed();
    failed += tcp->programs_failed();
  }
  EXPECT_EQ(completed, kNodes.size() * (3 * 10 + 2));
  EXPECT_EQ(failed, 0u);
  sim_.RunFor(Seconds(20));
  EXPECT_TRUE(Converged(&deploy_, kNodes, "item-master", "M1"));
  for (net::NodeId n : kNodes) {
    EXPECT_EQ(SuspenseDepth(&deploy_, n), 0u) << "node " << n;
  }
}

TEST_F(ManufacturingTest, LocalReadServesTheNodesOwnCopy) {
  SeedGlobalRecord(&deploy_, kNodes, "item-master", "X7", "v1", /*master=*/1);
  storage::Record req;
  req.Set("op", "lread").Set("file", "item-master").Set("key", "X7");
  auto read = Serve(3, req, /*in_txn=*/false);
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  auto rec = storage::Record::Decode(Slice(read.payload));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->Get("val"), "v1");
}

TEST_F(ManufacturingTest, DeferredUpdateCreatesAMissingCopy) {
  // A record created at its master reaches a copy that lacks it as a
  // deferred update, which inserts the copy.
  storage::Record req;
  req.Set("op", "dupdate").Set("file", "item-master").Set("key", "N1")
      .Set("val", "v9").Set("master", "1");
  ASSERT_FALSE(CopyValue(&deploy_, 4, "item-master", "N1").has_value());
  auto applied = Serve(4, req, /*in_txn=*/true);
  EXPECT_TRUE(applied.status.ok()) << applied.status.ToString();
  EXPECT_EQ(CopyValue(&deploy_, 4, "item-master", "N1"), "v9");
}

}  // namespace
}  // namespace encompass::apps::manufacturing
