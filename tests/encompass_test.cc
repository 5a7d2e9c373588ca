// End-to-end tests of the ENCOMPASS application layer: server classes with
// dynamic server creation, the TCP interpreting terminal programs with the
// TMF verbs, transaction restart on deadlock, failure transparency (server
// and TCP CPU failures), and browse scans through the file system — all on
// top of the full TMF / DISCPROCESS / audit stack.

#include <gtest/gtest.h>

#include "apps/banking/banking.h"
#include "encompass/deployment.h"
#include "encompass/server_class.h"
#include "encompass/tcp.h"
#include "test_util.h"
#include "tmf/file_system.h"

namespace encompass::app {
namespace {

using apps::banking::AccountKey;
using apps::banking::AddBankServerClass;
using apps::banking::BankRequest;
using apps::banking::BankServer;
using apps::banking::MakeTransferProgram;
using apps::banking::SeedAccounts;
using apps::banking::SumBalances;
using testutil::TestClient;

constexpr int kAccounts = 20;
constexpr int64_t kInitialBalance = 1000;

class EncompassTest : public ::testing::Test {
 protected:
  EncompassTest() : sim_(31), deploy_(&sim_) {
    NodeSpec n1;
    n1.id = 1;
    n1.node_config.num_cpus = 6;
    // Short deadlock-detection timeout keeps the contention tests fast.
    n1.disc_config.default_lock_timeout = Millis(100);
    n1.volumes = {VolumeSpec{"$DATA1", {FileSpec{"acct"}}, {}}};
    node1_ = deploy_.AddNode(n1);
    EXPECT_TRUE(deploy_.DefineFile("acct", 1, "$DATA1").ok());
    SeedAccounts(node1_->storage().volumes.at("$DATA1").get(), "acct", kAccounts,
                 kInitialBalance);
    router_ = AddBankServerClass(&deploy_, 1, "$SC.BANK", "acct");
    sim_.Run();
  }

  int64_t Sum() {
    return SumBalances(node1_->storage().volumes.at("$DATA1").get(), "acct");
  }

  Tcp* SpawnTcp(TcpConfig config, int cpu_a = 4, int cpu_b = 5) {
    auto pair = os::SpawnPair<Tcp>(node1_->node(), "$TCP1", cpu_a, cpu_b,
                                   std::move(config));
    sim_.Run();
    return pair.primary;
  }

  /// Every record of `file` in key order, read through FileSystem::Scan in
  /// 64-record batches. A scan stays within one partition, so the browse
  /// starts it again at each partition's upper bound.
  std::vector<std::pair<std::string, storage::Record>> Browse(
      const std::string& file) {
    auto* client = node1_->node()->Spawn<TestClient>(5);
    sim_.Run();
    tmf::FileSystem fs(client, &deploy_.catalog());
    const storage::FileDefinition* def = deploy_.catalog().Find(file);
    std::vector<std::pair<std::string, storage::Record>> rows;
    Bytes from;
    bool inclusive = true;
    while (true) {
      Status status = Status::Timeout("no reply");
      Bytes payload;
      fs.Scan(file, Slice(from), inclusive, /*max_records=*/64,
              [&](const Status& s, const Bytes& p) {
                status = s;
                payload = p;
              });
      sim_.Run();
      EXPECT_TRUE(status.ok()) << status.ToString();
      auto reply = discprocess::ScanReply::Decode(Slice(payload));
      if (!status.ok() || !reply.ok()) break;
      for (const auto& entry : reply->entries) {
        auto record = storage::Record::Decode(Slice(entry.value));
        EXPECT_TRUE(record.ok());
        rows.emplace_back(ToString(entry.key), std::move(*record));
      }
      if (!reply->entries.empty() && !reply->at_end) {
        from = reply->entries.back().key;
        inclusive = false;
        continue;
      }
      const size_t p = def->partitions.LocateIndex(Slice(from));
      if (p + 1 >= def->partitions.partition_count()) break;
      from = def->partitions.entries()[p].upper_bound;
      inclusive = true;
    }
    return rows;
  }

  sim::Simulation sim_;
  Deployment deploy_;
  NodeDeployment* node1_;
  ServerClassRouter* router_;
};

TEST_F(EncompassTest, ServerHandlesRequestInTransaction) {
  auto* client = node1_->node()->Spawn<TestClient>(5);
  sim_.Run();
  // Begin a transaction, send a credit through the server class, commit.
  auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  sim_.Run();
  ASSERT_TRUE(begin->status.ok());
  auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
  ASSERT_TRUE(transid.ok());

  auto* credit = client->CallRaw(net::Address(1, "$SC.BANK"), kServerRequest,
                                 BankRequest("credit", AccountKey(0), 500),
                                 transid->Pack());
  sim_.Run();
  ASSERT_TRUE(credit->status.ok());
  auto reply = storage::Record::Decode(Slice(credit->payload));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->Get("balance"), "1500");

  auto* end = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                              tmf::EncodeTransidPayload(*transid),
                              transid->Pack());
  sim_.Run();
  EXPECT_TRUE(end->status.ok());
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance + 500);
}

TEST_F(EncompassTest, ServerOpensAnAccountAndReadsItBack) {
  auto* client = node1_->node()->Spawn<TestClient>(5);
  sim_.Run();
  auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  sim_.Run();
  auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
  ASSERT_TRUE(transid.ok());

  auto* open = client->CallRaw(net::Address(1, "$SC.BANK"), kServerRequest,
                               BankRequest("open", "new-acct", 250),
                               transid->Pack());
  sim_.Run();
  EXPECT_TRUE(open->status.ok()) << open->status.ToString();
  auto* read = client->CallRaw(net::Address(1, "$SC.BANK"), kServerRequest,
                               BankRequest("read", "new-acct"), transid->Pack());
  sim_.Run();
  ASSERT_TRUE(read->status.ok()) << read->status.ToString();
  auto reply = storage::Record::Decode(Slice(read->payload));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->Get("balance"), "250");

  auto* end = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                              tmf::EncodeTransidPayload(*transid),
                              transid->Pack());
  sim_.Run();
  EXPECT_TRUE(end->status.ok());
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance + 250);
}

TEST_F(EncompassTest, ServerClassGrowsUnderLoadAndReapsWhenIdle) {
  auto* client = node1_->node()->Spawn<TestClient>(5);
  sim_.Run();
  EXPECT_EQ(router_->server_count(), 1);  // kMinServers
  // A burst of non-transactional reads saturates the single server.
  std::vector<TestClient::Outcome*> outcomes;
  for (int i = 0; i < 24; ++i) {
    outcomes.push_back(client->CallRaw(net::Address(1, "$SC.BANK"),
                                       kServerRequest,
                                       BankRequest("read", AccountKey(i % 5))));
  }
  sim_.RunFor(Millis(200));
  EXPECT_GT(router_->server_count(), 1);  // grew under load
  sim_.Run();
  for (auto* o : outcomes) EXPECT_TRUE(o->done);
  // More than the initial server was created during the burst.
  EXPECT_GT(sim_.GetStats().Counter("serverclass.spawned"), 1);
  // Idle long enough and the class shrinks back to the floor.
  sim_.RunFor(Seconds(30));
  EXPECT_EQ(router_->server_count(), 1);
  EXPECT_GT(sim_.GetStats().Counter("serverclass.reaped"), 0);
}

TEST_F(EncompassTest, TcpRunsTransferProgramsToCompletion) {
  auto program = MakeTransferProgram(1, "$SC.BANK", kAccounts, 50);
  TcpConfig cfg;
  cfg.programs = {{"transfer", &program}};
  Tcp* tcp = SpawnTcp(cfg);
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(tcp->AttachTerminal("term" + std::to_string(t), "transfer", 5));
  }
  sim_.Run();
  EXPECT_EQ(tcp->programs_completed(), 20u);
  EXPECT_EQ(tcp->programs_failed(), 0u);
  EXPECT_EQ(tcp->transactions_committed(), 20u);
  // Money is conserved: every debit paired with its credit atomically.
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.illegal_transitions"), 0);
}

TEST_F(EncompassTest, DeadlocksResolveViaTimeoutAndRestart) {
  // Few accounts + many concurrent terminals = lock cycles. The DISCPROCESS
  // breaks them by timeout; servers reply "restart"; TCPs re-run from
  // BEGIN-TRANSACTION. Everything completes and money is conserved.
  auto program = MakeTransferProgram(1, "$SC.BANK", /*accounts=*/3, 10);
  TcpConfig cfg;
  cfg.programs = {{"transfer", &program}};
  cfg.restart_limit = 500;
  Tcp* tcp = SpawnTcp(cfg);
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(tcp->AttachTerminal("term" + std::to_string(t), "transfer", 10));
  }
  sim_.Run();
  EXPECT_EQ(tcp->programs_completed(), 80u);
  EXPECT_EQ(tcp->programs_failed(), 0u);
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance);
}

TEST_F(EncompassTest, ServerCpuFailureAbortsAndRestartsTransactions) {
  auto program = MakeTransferProgram(1, "$SC.BANK", kAccounts, 50);
  TcpConfig cfg;
  cfg.programs = {{"transfer", &program}};
  cfg.restart_limit = 20;
  cfg.send_timeout = Millis(500);
  Tcp* tcp = SpawnTcp(cfg);
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(tcp->AttachTerminal("term" + std::to_string(t), "transfer", 10));
  }
  // Fail a CPU hosting bank servers mid-run (router places them on CPUs
  // 0..3 round-robin; CPU 0 also hosts other services whose backups take
  // over). Transactions in flight abort and restart transparently.
  sim_.RunFor(Millis(40));
  node1_->node()->FailCpu(0);
  sim_.RunFor(Seconds(60));
  sim_.Run();
  EXPECT_EQ(tcp->programs_completed(), 40u);
  EXPECT_EQ(tcp->programs_failed(), 0u);
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance);
}

TEST_F(EncompassTest, TcpTakeoverRestartsInFlightTransactions) {
  auto program = MakeTransferProgram(1, "$SC.BANK", kAccounts, 50);
  TcpConfig cfg;
  cfg.programs = {{"transfer", &program}};
  cfg.restart_limit = 20;
  auto pair = os::SpawnPair<Tcp>(node1_->node(), "$TCP1", 4, 5, cfg);
  sim_.Run();
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(pair.primary->AttachTerminal("term" + std::to_string(t),
                                             "transfer", 10));
  }
  sim_.RunFor(Millis(30));  // some programs mid-flight
  node1_->node()->FailCpu(4);  // TCP primary dies
  sim_.RunFor(Seconds(60));
  sim_.Run();
  ASSERT_TRUE(pair.backup->IsPrimary());
  // The terminal user never re-entered input; all programs completed on the
  // new primary (iterations done before the failure counted on the old one).
  EXPECT_GT(pair.backup->programs_completed(), 0u);
  EXPECT_EQ(pair.backup->programs_failed(), 0u);
  EXPECT_GT(sim_.GetStats().Counter("tcp.takeover_restarts"), 0);
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance);
  // No transactions remain in flight.
  EXPECT_EQ(node1_->tmp()->ActiveTransactionCount(), 0u);
}

TEST_F(EncompassTest, VoluntaryAbortProgramLeavesNoTrace) {
  ScreenProgram program("audit-then-abort");
  program.BeginTransaction()
      .Send(1, "$SC.BANK",
            [](const Fields&) { return BankRequest("credit", AccountKey(0), 777); })
      .AbortTransaction();
  TcpConfig cfg;
  cfg.programs = {{"p", &program}};
  Tcp* tcp = SpawnTcp(cfg);
  ASSERT_TRUE(tcp->AttachTerminal("term0", "p", 1));
  sim_.Run();
  EXPECT_EQ(tcp->programs_completed(), 1u);
  EXPECT_EQ(Sum(), kAccounts * kInitialBalance);  // credit backed out
  EXPECT_GT(sim_.GetStats().Counter("tmf.voluntary_aborts"), 0);
}

TEST_F(EncompassTest, QueryStreamsMultipleScanBatches) {
  // More records than one 64-record scan batch: the browse must chain
  // batches without gaps or duplicates.
  auto* vol = node1_->storage().volumes.at("$DATA1").get();
  storage::FileOptions opt;
  opt.audited = false;
  ASSERT_TRUE(
      vol->CreateFile("big", storage::FileOrganization::kKeySequenced, opt).ok());
  for (int i = 0; i < 300; ++i) {
    storage::Record r;
    r.Set("n", std::to_string(i));
    char key[16];
    snprintf(key, sizeof(key), "r%05d", i);
    vol->Mutate("big", storage::MutationOp::kInsert, Slice(key, 6),
                Slice(r.Encode()));
  }
  vol->Flush();
  ASSERT_TRUE(deploy_.DefineFile("big", 1, "$DATA1").ok());

  const auto rows = Browse("big");
  ASSERT_EQ(rows.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(rows[i].second.Get("n"), std::to_string(i));
  }
  EXPECT_GE(sim_.GetStats().Counter("disc.scan_batches"), 5);
}

TEST_F(EncompassTest, QueryScansPartitionedFileAcrossNodes) {
  // "stock" is partitioned: keys < "m" on node 1, the rest on node 2.
  NodeSpec n2;
  n2.id = 2;
  n2.volumes = {VolumeSpec{"$DATA2", {FileSpec{"stock"}}, {}}};
  NodeDeployment* node2 = deploy_.AddNode(n2);
  deploy_.LinkAll();
  // Physical partition on node 1 lives on $DATA1.
  storage::FileOptions opt;
  opt.audited = true;
  ASSERT_TRUE(node1_->storage()
                  .volumes.at("$DATA1")
                  ->CreateFile("stock", storage::FileOrganization::kKeySequenced,
                               opt)
                  .ok());
  storage::FileDefinition def;
  def.name = "stock";
  def.partitions.AddPartition(ToBytes("m"), 1, "$DATA1");
  def.partitions.AddPartition({}, 2, "$DATA2");
  ASSERT_TRUE(deploy_.DefinePartitionedFile(def).ok());

  auto seed = [](storage::Volume* vol, const std::string& key, int qty) {
    storage::Record r;
    r.Set("qty", std::to_string(qty));
    vol->Mutate("stock", storage::MutationOp::kInsert, Slice(key),
                Slice(r.Encode()));
    vol->Flush();
  };
  seed(node1_->storage().volumes.at("$DATA1").get(), "bolt", 5);
  seed(node1_->storage().volumes.at("$DATA1").get(), "gear", 7);
  seed(node2->storage().volumes.at("$DATA2").get(), "nut", 11);
  seed(node2->storage().volumes.at("$DATA2").get(), "washer", 13);

  const auto rows = Browse("stock");
  ASSERT_EQ(rows.size(), 4u);  // both partitions, in key order
  EXPECT_EQ(rows[0].first, "bolt");
  EXPECT_EQ(rows[3].first, "washer");
  int total = 0;
  for (const auto& [key, record] : rows) total += std::stoi(record.Get("qty"));
  EXPECT_EQ(total, 36);
}

}  // namespace
}  // namespace encompass::app
