// Queue execution lane tests: the QueuePlanner ($QPLAN) plans predeclared
// transactions into epochs and executes them lock-free in plan order, while
// committing through the ordinary TMF path. Pinned here: a clean commit
// moves the money without ever holding a record lock; a transaction naming
// a file outside its declared set is rejected with the distinct
// PlanViolation status before anything executes; the lock lane is untouched
// by the new lane; concurrent submits share one epoch; a runtime op failure
// aborts the whole transaction through BACKOUTPROCESS undo, even after the
// transaction's audit files were sealed and forced (no purge takes them
// while only the TMP knows it is live); and the lane is byte-identical to
// the Step() reference at every worker count.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "encompass/deployment.h"
#include "storage/record.h"
#include "tmf/file_system.h"
#include "tmf/queue_lane.h"
#include "tmf/tmf_protocol.h"
#include "step_reference.h"
#include "test_util.h"

namespace encompass::app {
namespace {

using testutil::TestClient;

std::string AcctKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "acct%05d", i);
  return buf;
}

int64_t Balance(storage::Volume* vol, int i) {
  auto r = vol->ReadRecord("acct", Slice(AcctKey(i)));
  if (!r.status.ok()) return -1;
  auto rec = storage::Record::Decode(Slice(r.value));
  if (!rec.ok()) return -1;
  return strtoll(rec->Get("balance").c_str(), nullptr, 10);
}

struct QueueRig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<Deployment> deploy;
  storage::Volume* volume = nullptr;
  TestClient* client = nullptr;
};

QueueRig MakeRig(uint64_t seed, ExecLane lane) {
  QueueRig rig;
  rig.sim = std::make_unique<sim::Simulation>(seed);
  rig.deploy = std::make_unique<Deployment>(rig.sim.get());
  NodeSpec spec;
  spec.id = 1;
  spec.exec_lane = lane;
  spec.volumes = {VolumeSpec{
      "$DATA1", {FileSpec{"acct"}, FileSpec{"other"}}, {}}};
  rig.deploy->AddNode(spec);
  EXPECT_TRUE(rig.deploy->DefineFile("acct", 1, "$DATA1").ok());
  EXPECT_TRUE(rig.deploy->DefineFile("other", 1, "$DATA1").ok());
  rig.volume = rig.deploy->GetNode(1)->storage().volumes.at("$DATA1").get();
  for (int i = 0; i < 10; ++i) {
    storage::Record rec;
    rec.Set("balance", "1000");
    rig.volume->Mutate("acct", storage::MutationOp::kInsert,
                       Slice(AcctKey(i)), Slice(rec.Encode()));
  }
  rig.volume->Flush();
  rig.client = rig.deploy->GetNode(1)->node()->Spawn<TestClient>(2);
  rig.sim->Run();
  return rig;
}

tmf::QueueTxn TransferTxn(int from, int to, int64_t amount) {
  tmf::QueueTxn t;
  t.declared = {"acct"};
  discprocess::PlannedOp debit;
  debit.kind = discprocess::PlannedOp::Kind::kDelta;
  debit.file = "acct";
  debit.key = ToBytes(AcctKey(from));
  debit.field = "balance";
  debit.delta = -amount;
  discprocess::PlannedOp credit = debit;
  credit.key = ToBytes(AcctKey(to));
  credit.delta = amount;
  t.ops = {debit, credit};
  return t;
}

void Pump(sim::Simulation* sim, TestClient::Outcome* out, int workers = 1) {
  for (int i = 0; i < 1000 && !out->done; ++i) {
    sim::testing::AdvanceTo(*sim, workers, sim->Now() + Millis(5));
  }
}

net::Address Qplan() { return net::Address(1, "$QPLAN"); }

// A clean transfer commits through the queue lane without a single record
// lock: the money moves, the TMF transaction drains, and the lock manager
// never saw the transaction.
TEST(QueueLaneTest, CommitsTransferLockFree) {
  QueueRig rig = MakeRig(3, ExecLane::kQueue);
  auto* out = rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit,
                                  TransferTxn(0, 1, 100).Encode());
  Pump(rig.sim.get(), out);
  ASSERT_TRUE(out->done);
  ASSERT_TRUE(out->status.ok()) << out->status.ToString();

  auto rep = tmf::QueueTxnReply::Decode(Slice(out->payload));
  ASSERT_TRUE(rep.ok());
  EXPECT_NE(rep->transid, 0u);
  ASSERT_EQ(rep->ops.results.size(), 2u);
  EXPECT_EQ(rep->ops.results[0].status, Status::Code::kOk);
  EXPECT_EQ(rep->ops.results[1].status, Status::Code::kOk);

  EXPECT_EQ(Balance(rig.volume, 0), 900);
  EXPECT_EQ(Balance(rig.volume, 1), 1100);
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.commits"), 1);
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.epochs"), 1);
  EXPECT_EQ(rig.sim->GetStats().Counter("lock.conflict_aborts"), 0);
  EXPECT_EQ(rig.deploy->GetNode(1)->disc("$DATA1")->locks().held_count(), 0u);
  EXPECT_EQ(rig.deploy->GetNode(1)->tmp()->ActiveTransactionCount(), 0u);
}

// An op naming a file outside the predeclared set is rejected with the
// distinct PlanViolation status at admission: no TMF BEGIN, no execution,
// nothing to back out.
TEST(QueueLaneTest, PlanViolationRejectedBeforeExecution) {
  QueueRig rig = MakeRig(5, ExecLane::kQueue);
  tmf::QueueTxn t = TransferTxn(0, 1, 50);
  discprocess::PlannedOp stray;
  stray.kind = discprocess::PlannedOp::Kind::kInsert;
  stray.file = "other";  // not in t.declared
  stray.key = ToBytes(std::string("k1"));
  storage::Record rec;
  rec.Set("v", "x");
  stray.record = rec.Encode();
  t.ops.push_back(stray);

  auto* out = rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit, t.Encode());
  Pump(rig.sim.get(), out);
  ASSERT_TRUE(out->done);
  EXPECT_TRUE(out->status.IsPlanViolation()) << out->status.ToString();

  EXPECT_EQ(Balance(rig.volume, 0), 1000);
  EXPECT_EQ(Balance(rig.volume, 1), 1000);
  EXPECT_FALSE(
      rig.volume->ReadRecord("other", Slice(std::string("k1"))).status.ok());
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.plan_violations"), 1);
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.epochs"), 0);
  EXPECT_EQ(rig.deploy->GetNode(1)->tmp()->ActiveTransactionCount(), 0u);
}

// The lock lane is unaffected by the new lane and status: a kLocks node
// spawns no $QPLAN, and an ordinary locked transaction touching any file it
// likes (no declaration concept) commits exactly as before.
TEST(QueueLaneTest, LockLaneUnaffected) {
  QueueRig rig = MakeRig(7, ExecLane::kLocks);
  EXPECT_EQ(rig.deploy->GetNode(1)->node()->LookupName("$QPLAN"), 0u);

  auto* b = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  rig.sim->Run();
  ASSERT_TRUE(b->done && b->status.ok());
  uint64_t t = tmf::DecodeTransidPayload(Slice(b->payload))->Pack();

  tmf::FileSystem fs(rig.client, &rig.deploy->catalog());
  bool done = false;
  Status st;
  storage::Record rec;
  rec.Set("v", "y");
  rig.client->set_current_transid(t);
  fs.Insert("other", Slice(std::string("k2")), Slice(rec.Encode()),
            [&](const Status& s, const Bytes&) {
              st = s;
              done = true;
            });
  rig.client->set_current_transid(0);
  rig.sim->Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(st.IsPlanViolation());

  auto* e = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                tmf::EncodeTransidPayload(Transid::Unpack(t)),
                                t);
  Pump(rig.sim.get(), e);
  ASSERT_TRUE(e->done && e->status.ok());
  EXPECT_TRUE(rig.volume->ReadRecord("other", Slice(std::string("k2")))
                  .status.ok());
}

// Submits landing within one batch window share one epoch (the group-commit
// idiom): three concurrent transfers, one epoch, three commits.
TEST(QueueLaneTest, EpochBatchesConcurrentSubmits) {
  QueueRig rig = MakeRig(11, ExecLane::kQueue);
  std::vector<TestClient::Outcome*> outs;
  outs.push_back(rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit,
                                     TransferTxn(0, 1, 10).Encode()));
  outs.push_back(rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit,
                                     TransferTxn(2, 3, 20).Encode()));
  outs.push_back(rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit,
                                     TransferTxn(4, 5, 30).Encode()));
  for (auto* out : outs) Pump(rig.sim.get(), out);
  for (auto* out : outs) {
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok()) << out->status.ToString();
  }
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.submits"), 3);
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.epochs"), 1);
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.commits"), 3);
  EXPECT_EQ(Balance(rig.volume, 0), 990);
  EXPECT_EQ(Balance(rig.volume, 1), 1010);
  EXPECT_EQ(Balance(rig.volume, 4), 970);
  EXPECT_EQ(Balance(rig.volume, 5), 1030);
}

// A runtime op failure (update of a key that does not exist) aborts the
// whole transaction through the ordinary BACKOUTPROCESS undo: ops that
// already executed are rolled back, and the reply carries both the Aborted
// verdict and the failing op's status.
TEST(QueueLaneTest, RuntimeFailureAbortsAndBacksOut) {
  QueueRig rig = MakeRig(13, ExecLane::kQueue);
  tmf::QueueTxn t;
  t.declared = {"acct"};
  discprocess::PlannedOp debit;
  debit.kind = discprocess::PlannedOp::Kind::kDelta;
  debit.file = "acct";
  debit.key = ToBytes(AcctKey(0));
  debit.field = "balance";
  debit.delta = -50;
  discprocess::PlannedOp bad;
  bad.kind = discprocess::PlannedOp::Kind::kUpdate;
  bad.file = "acct";
  bad.key = ToBytes(std::string("no-such-account"));
  storage::Record rec;
  rec.Set("balance", "1");
  bad.record = rec.Encode();
  t.ops = {debit, bad};

  auto* out = rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit, t.Encode());
  Pump(rig.sim.get(), out);
  ASSERT_TRUE(out->done);
  EXPECT_TRUE(out->status.IsAborted()) << out->status.ToString();

  auto rep = tmf::QueueTxnReply::Decode(Slice(out->payload));
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(rep->ops.results.size(), 2u);
  EXPECT_NE(rep->ops.results[1].status, Status::Code::kOk);

  EXPECT_EQ(Balance(rig.volume, 0), 1000);  // the debit was undone
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.aborts"), 1);
  EXPECT_EQ(rig.sim->GetStats().Counter("queue.commits"), 0);
  EXPECT_EQ(rig.deploy->GetNode(1)->disc("$DATA1")->locks().held_count(), 0u);
  EXPECT_EQ(rig.deploy->GetNode(1)->tmp()->ActiveTransactionCount(), 0u);
}

// The audit purge rule where only the TMP knows a transaction is live: a
// queue-lane transaction holds no record lock. This one writes more than
// three audit files of deltas, and lock-lane commits force the trail while
// it is live; its failing last op then aborts it. No file holding its
// records may be purged until it has finished, and the backout restores
// every balance.
TEST(QueueLaneTest, AbortBacksOutFromAuditFilesSealedWhileItRan) {
  QueueRig rig = MakeRig(19, ExecLane::kQueue);
  constexpr int kDeltas = 3 * 4096 + 512;
  tmf::QueueTxn big;
  big.declared = {"acct"};
  for (int i = 0; i < kDeltas; ++i) {
    discprocess::PlannedOp op;
    op.kind = discprocess::PlannedOp::Kind::kDelta;
    op.file = "acct";
    op.key = ToBytes(AcctKey(i % 10));
    op.field = "balance";
    op.delta = 1;
    big.ops.push_back(op);
  }
  discprocess::PlannedOp bad = big.ops.back();
  bad.key = ToBytes(std::string("no-such-account"));
  big.ops.push_back(bad);
  auto* out = rig.client->CallRaw(Qplan(), tmf::kTmfQueueSubmit, big.Encode());

  tmf::FileSystem fs(rig.client, &rig.deploy->catalog());
  int commits = 0;
  for (int i = 0; i < 1000 && !out->done; ++i) {
    auto* b = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    Pump(rig.sim.get(), b);
    ASSERT_TRUE(b->done && b->status.ok());
    const uint64_t t = tmf::DecodeTransidPayload(Slice(b->payload))->Pack();
    auto inserted = std::make_shared<bool>(false);
    rig.client->set_current_transid(t);
    fs.Insert("other", Slice("k" + std::to_string(i)), Slice("v"),
              [inserted](const Status& s, const Bytes&) { *inserted = s.ok(); });
    rig.client->set_current_transid(0);
    auto* e = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                  tmf::EncodeTransidPayload(Transid::Unpack(t)),
                                  t);
    Pump(rig.sim.get(), e);
    ASSERT_TRUE(*inserted);
    ASSERT_TRUE(e->status.ok()) << e->status.ToString();
    ++commits;
  }
  Pump(rig.sim.get(), out);
  ASSERT_TRUE(out->done);
  EXPECT_TRUE(out->status.IsAborted()) << out->status.ToString();
  ASSERT_GE(commits, 3);  // forces while the big transaction ran

  const audit::AuditTrail* trail =
      rig.deploy->GetNode(1)->storage().trails.at("$DATA1.AT").get();
  EXPECT_GE(trail->file_count(), 4u);
  EXPECT_EQ(trail->first_file_number(), 1u);
  EXPECT_EQ(rig.sim->GetStats().Counter("audit.files_purged"), 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(Balance(rig.volume, i), 1000) << i;
}

// Two queue-lane nodes over a partitioned file, driven concurrently: the
// run's full history — reply statuses, every balance, the complete stats
// registry — is byte-identical at every worker count and to the Step()
// reference (workers = sim::testing::kStepReference).
std::string RunTwoNodeScenario(int workers) {
  sim::Simulation sim(17, workers);
  Deployment deploy(&sim);
  for (int n = 1; n <= 2; ++n) {
    NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.exec_lane = ExecLane::kQueue;
    spec.volumes = {VolumeSpec{
        "$DATA" + std::to_string(n), {FileSpec{"acct"}}, {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  storage::FileDefinition def;
  def.name = "acct";
  def.partitions.AddPartition(ToBytes(AcctKey(10)), 1, "$DATA1");
  def.partitions.AddPartition({}, 2, "$DATA2");
  EXPECT_TRUE(deploy.DefinePartitionedFile(def).ok());
  for (int n = 1; n <= 2; ++n) {
    auto* vol =
        deploy.GetNode(static_cast<net::NodeId>(n))->storage().volumes
            .at("$DATA" + std::to_string(n))
            .get();
    for (int i = (n - 1) * 10; i < n * 10; ++i) {
      storage::Record rec;
      rec.Set("balance", "1000");
      vol->Mutate("acct", storage::MutationOp::kInsert, Slice(AcctKey(i)),
                  Slice(rec.Encode()));
    }
    vol->Flush();
  }
  TestClient* clients[2];
  for (int n = 1; n <= 2; ++n) {
    clients[n - 1] =
        deploy.GetNode(static_cast<net::NodeId>(n))->node()->Spawn<TestClient>(2);
  }
  sim::testing::Drain(sim, workers);

  std::vector<TestClient::Outcome*> outs;
  for (int n = 1; n <= 2; ++n) {
    int base = (n - 1) * 10;
    for (int k = 0; k < 5; ++k) {
      outs.push_back(clients[n - 1]->CallRaw(
          net::Address(static_cast<net::NodeId>(n), "$QPLAN"),
          tmf::kTmfQueueSubmit,
          TransferTxn(base + k, base + (k + 3) % 10, 7 + k).Encode()));
    }
  }
  for (auto* out : outs) Pump(&sim, out, workers);

  std::string digest;
  for (auto* out : outs) {
    digest += out->done ? StatusCodeName(out->status.code()) : "pending";
    digest += ";";
  }
  for (int i = 0; i < 20; ++i) {
    int n = 1 + i / 10;
    auto* vol = deploy.GetNode(static_cast<net::NodeId>(n))
                    ->storage().volumes.at("$DATA" + std::to_string(n))
                    .get();
    digest += std::to_string(Balance(vol, i)) + ",";
  }
  digest += "\n" + sim.GetStats().ToString();
  return digest;
}

TEST(QueueLaneTest, DeterministicAcrossWorkerCounts) {
  const std::string base = RunTwoNodeScenario(sim::testing::kStepReference);
  EXPECT_NE(base.find("OK;"), std::string::npos);
  for (int workers : {1, 2, 4}) {
    EXPECT_EQ(RunTwoNodeScenario(workers), base) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace encompass::app
