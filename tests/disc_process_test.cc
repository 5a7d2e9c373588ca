// Integration tests for the DISCPROCESS pair: record operations, locking
// with timeout deadlock resolution, audit generation, transaction state
// changes, backout undo, and takeover with duplicate suppression.

#include <gtest/gtest.h>

#include "audit/audit_process.h"
#include "audit/audit_trail.h"
#include "discprocess/disc_process.h"
#include "discprocess/disc_protocol.h"
#include "os/cluster.h"
#include "os/process_pair.h"
#include "storage/volume.h"
#include "test_util.h"

namespace encompass::discprocess {
namespace {

using testutil::TestClient;

class DiscProcessTest : public ::testing::Test {
 protected:
  DiscProcessTest()
      : sim_(7), cluster_(&sim_), volume_("$DATA1"), trail_("AT1") {
    node_ = cluster_.AddNode(1);

    storage::FileOptions audited;
    audited.audited = true;
    EXPECT_TRUE(
        volume_.CreateFile("acct", storage::FileOrganization::kKeySequenced, audited)
            .ok());
    EXPECT_TRUE(
        volume_.CreateFile("scratch", storage::FileOrganization::kKeySequenced)
            .ok());
    storage::FileOptions log_opt;
    log_opt.audited = true;
    EXPECT_TRUE(
        volume_.CreateFile("log", storage::FileOrganization::kEntrySequenced,
                           log_opt)
            .ok());

    audit::AuditProcessConfig acfg;
    acfg.trail = &trail_;
    os::SpawnPair<audit::AuditProcess>(node_, "$AUDIT", 0, 1, acfg);

    DiscProcessConfig dcfg;
    dcfg.volume = &volume_;
    dcfg.audit_process = "$AUDIT";
    dcfg.default_lock_timeout = Millis(200);
    disc_ = os::SpawnPair<DiscProcess>(node_, "$DATA1", 0, 1, dcfg);

    client_ = node_->Spawn<TestClient>(2);
    client2_ = node_->Spawn<TestClient>(3);
    sim_.Run();
  }

  net::Address Disc() { return net::Address(1, "$DATA1"); }

  uint64_t Txn(uint64_t seq) { return Transid{1, 0, seq}.Pack(); }

  TestClient::Outcome* Op(TestClient* c, uint32_t tag, DiscRequest req,
                          uint64_t transid, os::CallOptions opt = {}) {
    return c->CallRaw(Disc(), tag, req.Encode(), transid, opt);
  }

  void EndTxn(uint64_t transid, DiscTxnState state) {
    TxnStateChange change;
    change.transid = Transid::Unpack(transid);
    change.state = state;
    client_->SendRaw(Disc(), kDiscTxnStateChange, change.Encode());
  }

  sim::Simulation sim_;
  os::Cluster cluster_;
  os::Node* node_;
  storage::Volume volume_;
  audit::AuditTrail trail_;
  os::PairHandles<DiscProcess> disc_;
  TestClient* client_;
  TestClient* client2_;
};

TEST_F(DiscProcessTest, InsertReadUpdateDeleteUnderTransaction) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  auto* r1 = Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  ASSERT_TRUE(r1->done);
  EXPECT_TRUE(r1->status.ok());
  EXPECT_EQ(ToString(r1->payload), "a1");  // assigned key echoed

  DiscRequest rd;
  rd.file = "acct";
  rd.key = ToBytes("a1");
  auto* r2 = Op(client_, kDiscRead, rd, Txn(1));
  sim_.Run();
  EXPECT_TRUE(r2->status.ok());
  EXPECT_EQ(ToString(r2->payload), "100");

  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("150");
  auto* r3 = Op(client_, kDiscUpdate, up, Txn(1));
  sim_.Run();
  EXPECT_TRUE(r3->status.ok());

  DiscRequest del;
  del.file = "acct";
  del.key = ToBytes("a1");
  auto* r4 = Op(client_, kDiscDelete, del, Txn(1));
  sim_.Run();
  EXPECT_TRUE(r4->status.ok());

  // Audit trail received one image per mutation.
  auto images = trail_.RecordsForTransaction(Transid{1, 0, 1});
  ASSERT_EQ(images.size(), 3u);
  EXPECT_EQ(images[0].op, storage::MutationOp::kInsert);
  EXPECT_EQ(ToString(images[1].before), "100");
  EXPECT_EQ(ToString(images[1].after), "150");
  EXPECT_EQ(images[2].op, storage::MutationOp::kDelete);
  EXPECT_EQ(ToString(images[2].before), "150");
}

TEST_F(DiscProcessTest, AuditedFileRejectsNonTransactionalWrites) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("x");
  ins.record = ToBytes("v");
  auto* r = Op(client_, kDiscInsert, ins, /*transid=*/0);
  sim_.Run();
  EXPECT_TRUE(r->status.IsInvalidArgument());
}

TEST_F(DiscProcessTest, UnauditedFileAllowsDirectWrites) {
  DiscRequest ins;
  ins.file = "scratch";
  ins.key = ToBytes("x");
  ins.record = ToBytes("v");
  auto* r = Op(client_, kDiscInsert, ins, /*transid=*/0);
  sim_.Run();
  EXPECT_TRUE(r->status.ok());
  // No audit image was generated.
  EXPECT_EQ(trail_.record_count(), 0u);
}

TEST_F(DiscProcessTest, EntrySequencedAppendAssignsAndLocksKey) {
  DiscRequest app;
  app.file = "log";
  auto* r = Op(client_, kDiscInsert, app, Txn(9));
  sim_.Run();
  ASSERT_TRUE(r->status.ok());
  EXPECT_EQ(r->payload.size(), 8u);  // recnum key
  EXPECT_TRUE(disc_.primary->locks().Holds(Transid{1, 0, 9},
                                           LockKey{"log", r->payload}));
}

TEST_F(DiscProcessTest, LockedReadBlocksOtherWriter) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  EndTxn(Txn(1), DiscTxnState::kEnded);
  sim_.Run();

  // Txn 2 reads with lock.
  DiscRequest rd;
  rd.file = "acct";
  rd.key = ToBytes("a1");
  rd.lock = true;
  auto* r1 = Op(client_, kDiscRead, rd, Txn(2));
  sim_.Run();
  EXPECT_TRUE(r1->status.ok());

  // Txn 3's update parks behind the lock.
  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("999");
  os::CallOptions opt;
  opt.timeout = Seconds(30);
  auto* r2 = Op(client2_, kDiscUpdate, up, Txn(3), opt);
  sim_.RunFor(Millis(50));
  EXPECT_FALSE(r2->done);  // waiting

  // Commit txn 2: lock releases, txn 3 proceeds.
  EndTxn(Txn(2), DiscTxnState::kEnded);
  sim_.Run();
  ASSERT_TRUE(r2->done);
  EXPECT_TRUE(r2->status.ok());
  EXPECT_EQ(ToString(volume_.ReadRecord("acct", Slice("a1")).value), "999");
}

TEST_F(DiscProcessTest, LockWaitTimesOutForDeadlockResolution) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("1");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();

  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("2");
  up.lock_timeout = Millis(100);
  os::CallOptions opt;
  opt.timeout = Seconds(30);
  auto* r = Op(client2_, kDiscUpdate, up, Txn(2), opt);
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.IsTimeout());
  EXPECT_GT(sim_.GetStats().Counter("disc.lock_timeouts"), 0);
  // The value is unchanged.
  EXPECT_EQ(ToString(volume_.ReadRecord("acct", Slice("a1")).value), "1");
}

TEST_F(DiscProcessTest, AbortingTransactionRejectsNewWork) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("1");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  EndTxn(Txn(1), DiscTxnState::kAborting);
  sim_.Run();
  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("2");
  auto* r = Op(client_, kDiscUpdate, up, Txn(1));
  sim_.Run();
  EXPECT_TRUE(r->status.IsAborted());
}

TEST_F(DiscProcessTest, UndoCompensatesAndAbortReleasesLocks) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  EndTxn(Txn(1), DiscTxnState::kEnded);
  sim_.Run();

  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("999");
  Op(client_, kDiscUpdate, up, Txn(2));
  sim_.Run();
  EndTxn(Txn(2), DiscTxnState::kAborting);
  sim_.Run();

  // Backout: apply the compensating before-image.
  DiscRequest undo;
  undo.file = "acct";
  undo.key = ToBytes("a1");
  undo.record = ToBytes("100");  // before-image
  undo.undo_op = storage::MutationOp::kUpdate;
  auto* r = Op(client_, kDiscUndo, undo, Txn(2));
  sim_.Run();
  EXPECT_TRUE(r->status.ok());
  EXPECT_EQ(ToString(volume_.ReadRecord("acct", Slice("a1")).value), "100");

  // Undo is idempotent (a takeover may replay it).
  auto* r2 = Op(client_, kDiscUndo, undo, Txn(2));
  sim_.Run();
  EXPECT_TRUE(r2->status.ok());
  EXPECT_EQ(ToString(volume_.ReadRecord("acct", Slice("a1")).value), "100");

  EndTxn(Txn(2), DiscTxnState::kAborted);
  sim_.Run();
  EXPECT_EQ(disc_.primary->locks().held_count(), 0u);
}

TEST_F(DiscProcessTest, SeekAndAlternateKeyThroughDiscProcess) {
  storage::FileOptions opt;
  opt.schema.alternate_keys = {"site"};
  volume_.CreateFile("stock", storage::FileOrganization::kKeySequenced, opt);
  for (int i = 0; i < 3; ++i) {
    DiscRequest ins;
    ins.file = "stock";
    ins.key = ToBytes("s" + std::to_string(i));
    ins.record = storage::Record().Set("site", "cupertino").Encode();
    Op(client_, kDiscInsert, ins, /*transid=*/0);
  }
  sim_.Run();

  DiscRequest seek;
  seek.file = "stock";
  seek.key = ToBytes("s0");
  seek.inclusive = false;
  auto* r = Op(client_, kDiscSeek, seek, 0);
  sim_.Run();
  ASSERT_TRUE(r->status.ok());
  auto rep = SeekReply::Decode(Slice(r->payload));
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(ToString(rep->key), "s1");

  DiscRequest alt;
  alt.file = "stock";
  alt.field = "site";
  alt.value = "cupertino";
  auto* r2 = Op(client_, kDiscReadAlt, alt, 0);
  sim_.Run();
  EXPECT_TRUE(r2->status.ok());
  EXPECT_FALSE(r2->payload.empty());
}

TEST_F(DiscProcessTest, BatchedScanReturnsOrderedEntries) {
  for (int i = 0; i < 10; ++i) {
    DiscRequest ins;
    ins.file = "scratch";
    ins.key = ToBytes("k" + std::to_string(i));
    ins.record = ToBytes("v" + std::to_string(i));
    Op(client_, kDiscInsert, ins, 0);
  }
  sim_.Run();

  DiscRequest scan;
  scan.file = "scratch";
  scan.inclusive = true;
  scan.max_records = 4;
  auto* r1 = Op(client_, kDiscScan, scan, 0);
  sim_.Run();
  ASSERT_TRUE(r1->status.ok());
  auto rep1 = ScanReply::Decode(Slice(r1->payload));
  ASSERT_TRUE(rep1.ok());
  ASSERT_EQ(rep1->entries.size(), 4u);
  EXPECT_FALSE(rep1->at_end);
  EXPECT_EQ(ToString(rep1->entries[0].key), "k0");
  EXPECT_EQ(ToString(rep1->entries[3].key), "k3");

  // Continue exclusively from the last key; a big batch drains the rest.
  DiscRequest scan2;
  scan2.file = "scratch";
  scan2.key = rep1->entries.back().key;
  scan2.inclusive = false;
  scan2.max_records = 100;
  auto* r2 = Op(client_, kDiscScan, scan2, 0);
  sim_.Run();
  auto rep2 = ScanReply::Decode(Slice(r2->payload));
  ASSERT_TRUE(rep2.ok());
  EXPECT_EQ(rep2->entries.size(), 6u);
  EXPECT_TRUE(rep2->at_end);
  EXPECT_EQ(ToString(rep2->entries.back().key), "k9");
}

TEST_F(DiscProcessTest, ScanOfEmptyFileReportsEnd) {
  volume_.CreateFile("empty", storage::FileOrganization::kKeySequenced);
  DiscRequest scan;
  scan.file = "empty";
  scan.inclusive = true;
  auto* r = Op(client_, kDiscScan, scan, 0);
  sim_.Run();
  ASSERT_TRUE(r->status.ok());
  auto rep = ScanReply::Decode(Slice(r->payload));
  ASSERT_TRUE(rep.ok());
  EXPECT_TRUE(rep->entries.empty());
  EXPECT_TRUE(rep->at_end);
}

TEST_F(DiscProcessTest, DiscRequestCodecRoundTrip) {
  DiscRequest req;
  req.file = "acct";
  req.key = ToBytes("k");
  req.record = ToBytes("rec");
  req.field = "site";
  req.value = "cupertino";
  req.lock = true;
  req.inclusive = false;
  req.undo_op = storage::MutationOp::kDelete;
  req.lock_timeout = Millis(123);
  req.max_records = 77;
  auto decoded = DiscRequest::Decode(Slice(req.Encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->file, "acct");
  EXPECT_EQ(ToString(decoded->key), "k");
  EXPECT_EQ(ToString(decoded->record), "rec");
  EXPECT_EQ(decoded->field, "site");
  EXPECT_EQ(decoded->value, "cupertino");
  EXPECT_TRUE(decoded->lock);
  EXPECT_FALSE(decoded->inclusive);
  EXPECT_EQ(decoded->undo_op, storage::MutationOp::kDelete);
  EXPECT_EQ(decoded->lock_timeout, Millis(123));
  EXPECT_EQ(decoded->max_records, 77u);
}

TEST_F(DiscProcessTest, TakeoverSuppressesDuplicateApplication) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  os::CallOptions opt;
  opt.timeout = Millis(50);
  opt.retries = 3;
  auto* r = Op(client_, kDiscInsert, ins, Txn(1), opt);
  // Let the request reach and be applied by the primary (sub-millisecond),
  // then kill the primary's CPU before its reply (300us base latency) —
  // strictly between apply and reply.
  sim_.RunFor(Micros(100));
  node_->FailCpu(0);
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.ok());  // answered from the mirrored reply cache
  EXPECT_GT(sim_.GetStats().Counter("disc.dedup_replays"), 0);
  // Exactly one record exists.
  EXPECT_EQ(volume_.Find("acct")->record_count(), 1u);
  // The new primary still tracks the lock.
  EXPECT_TRUE(node_->Find(node_->LookupName("$DATA1")) != nullptr);
  EXPECT_TRUE(disc_.backup->IsPrimary());
  EXPECT_TRUE(disc_.backup->locks().Holds(Transid{1, 0, 1},
                                          LockKey{"acct", ToBytes("a1")}));
}

TEST_F(DiscProcessTest, ZombieRequestForResolvedTransactionRejected) {
  // Regression: a retransmitted request carrying an already-resolved
  // transid (e.g. delivered after a partition heals) must not acquire locks
  // — they would leak forever since the release already happened.
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  EndTxn(Txn(1), DiscTxnState::kEnded);  // txn 1 fully resolved
  sim_.Run();
  EXPECT_EQ(disc_.primary->locks().held_count(), 0u);

  // The zombie arrives late, still stamped with txn 1.
  DiscRequest zombie;
  zombie.file = "acct";
  zombie.key = ToBytes("a1");
  zombie.lock = true;
  auto* r = Op(client2_, kDiscRead, zombie, Txn(1));
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.IsAborted());
  EXPECT_EQ(disc_.primary->locks().held_count(), 0u);  // nothing leaked
}

TEST_F(DiscProcessTest, ResolvedSetMirroredToBackup) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  EndTxn(Txn(1), DiscTxnState::kEnded);
  sim_.Run();
  node_->FailCpu(0);  // primary dies; backup must remember txn 1 is dead
  sim_.Run();
  ASSERT_TRUE(disc_.backup->IsPrimary());
  DiscRequest zombie;
  zombie.file = "acct";
  zombie.key = ToBytes("a1");
  zombie.lock = true;
  auto* r = Op(client2_, kDiscRead, zombie, Txn(1));
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.IsAborted());
  EXPECT_EQ(disc_.backup->locks().held_count(), 0u);
}

TEST_F(DiscProcessTest, TakeoverPreservesLockStateAcrossCommit) {
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("a1");
  ins.record = ToBytes("100");
  Op(client_, kDiscInsert, ins, Txn(1));
  sim_.Run();
  node_->FailCpu(0);  // primary dies holding txn 1's lock state
  sim_.Run();
  ASSERT_TRUE(disc_.backup->IsPrimary());
  // Another txn conflicts until txn 1 is released on the new primary.
  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("7");
  os::CallOptions opt;
  opt.timeout = Seconds(30);
  auto* r = Op(client2_, kDiscUpdate, up, Txn(2), opt);
  sim_.RunFor(Millis(50));
  EXPECT_FALSE(r->done);
  EndTxn(Txn(1), DiscTxnState::kEnded);
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.ok());
}

TEST_F(DiscProcessTest, StatusMessageTextReachesRequester) {
  // Regression: replies used to carry bare codes (Status(code, "")); the
  // human-readable text must survive the delayed reply path.
  DiscRequest rd;
  rd.file = "nofile";
  rd.key = ToBytes("k");
  auto* r = Op(client_, kDiscRead, rd, Txn(1));
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.IsNotFound());
  EXPECT_EQ(r->status.message(), "no file: nofile");
}

TEST_F(DiscProcessTest, StatusMessageTextSurvivesTakeoverReplay) {
  // The error text must also survive the mirrored reply cache: the backup
  // answers the retry after takeover with the full message.
  DiscRequest rd;
  rd.file = "nofile";
  rd.key = ToBytes("k");
  os::CallOptions opt;
  opt.timeout = Millis(50);
  opt.retries = 3;
  auto* r = Op(client_, kDiscRead, rd, Txn(1), opt);
  sim_.RunFor(Micros(100));  // applied by the primary, reply still pending
  node_->FailCpu(0);
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.IsNotFound());
  EXPECT_EQ(r->status.message(), "no file: nofile");
  EXPECT_GT(sim_.GetStats().Counter("disc.dedup_replays"), 0);
}

TEST_F(DiscProcessTest, LockTimeoutMessageNamesTheFile) {
  DiscRequest up;
  up.file = "acct";
  up.key = ToBytes("a1");
  up.record = ToBytes("1");
  Op(client_, kDiscInsert, up, Txn(1));
  sim_.Run();
  auto* r = Op(client2_, kDiscUpdate, up, Txn(2));
  sim_.Run();
  ASSERT_TRUE(r->done);
  EXPECT_TRUE(r->status.IsTimeout());
  EXPECT_EQ(r->status.message(), "lock wait timeout: acct");
}

// Builds a self-contained rig so checkpoint knobs can vary per test.
struct CoalesceRig {
  explicit CoalesceRig(SimDuration window)
      : sim(7), cluster(&sim), volume("$DATA9") {
    node = cluster.AddNode(1);
    EXPECT_TRUE(
        volume.CreateFile("acct", storage::FileOrganization::kKeySequenced).ok());
    DiscProcessConfig dcfg;
    dcfg.volume = &volume;
    dcfg.ckpt_coalesce_window = window;
    disc = os::SpawnPair<DiscProcess>(node, "$DATA9", 0, 1, dcfg);
    client = node->Spawn<TestClient>(2);
    sim.Run();
  }

  /// Runs `n` pipelined inserts under one transaction, then commits.
  void RunInserts(int n) {
    std::vector<TestClient::Outcome*> outcomes;
    for (int i = 0; i < n; ++i) {
      DiscRequest ins;
      ins.file = "acct";
      ins.key = ToBytes("k" + std::to_string(i));
      ins.record = ToBytes("v");
      outcomes.push_back(client->CallRaw(net::Address(1, "$DATA9"), kDiscInsert,
                                         ins.Encode(), Transid{1, 0, 9}.Pack(),
                                         {}));
    }
    sim.Run();
    for (auto* r : outcomes) EXPECT_TRUE(r->done && r->status.ok());
    TxnStateChange change;
    change.transid = Transid{1, 0, 9};
    change.state = DiscTxnState::kEnded;
    client->SendRaw(net::Address(1, "$DATA9"), kDiscTxnStateChange,
                    change.Encode());
    sim.Run();
  }

  int64_t Messages() { return sim.GetStats().Counter("disc.ckpt_messages"); }
  int64_t Entries() { return sim.GetStats().Counter("disc.ckpt_entries"); }

  sim::Simulation sim;
  os::Cluster cluster;
  os::Node* node;
  storage::Volume volume;
  os::PairHandles<DiscProcess> disc;
  TestClient* client;
};

TEST_F(DiscProcessTest, CheckpointCoalescingCutsMessagesNotEntries) {
  CoalesceRig per_op(0);
  CoalesceRig coalesced(Millis(5));
  per_op.RunInserts(20);
  coalesced.RunInserts(20);

  // Same state deltas flow to the backup either way...
  EXPECT_EQ(per_op.Entries(), coalesced.Entries());
  EXPECT_GT(per_op.Entries(), 0);
  // ...but the coalescing window piggybacks them into far fewer messages.
  EXPECT_GT(per_op.Messages(), 0);
  EXPECT_LE(coalesced.Messages() * 2, per_op.Messages());

  // The coalesced backup is fully synchronized once the window flushes:
  // after commit it holds no locks, same as the per-op backup.
  EXPECT_EQ(per_op.disc.backup->locks().held_count(), 0u);
  EXPECT_EQ(coalesced.disc.backup->locks().held_count(), 0u);
}

TEST_F(DiscProcessTest, CoalescedCheckpointsSurviveTakeover) {
  // With a window pending, a takeover after the flush timer fires must leave
  // the backup with exactly the primary's lock state.
  CoalesceRig rig(Millis(2));
  DiscRequest ins;
  ins.file = "acct";
  ins.key = ToBytes("held");
  ins.record = ToBytes("v");
  auto* r = rig.client->CallRaw(net::Address(1, "$DATA9"), kDiscInsert,
                                ins.Encode(), Transid{1, 0, 9}.Pack(), {});
  rig.sim.Run();  // quiesce: the coalescing window has flushed
  ASSERT_TRUE(r->done && r->status.ok());
  rig.node->FailCpu(0);
  rig.sim.Run();
  ASSERT_TRUE(rig.disc.backup->IsPrimary());
  EXPECT_TRUE(rig.disc.backup->locks().Holds(Transid{1, 0, 9},
                                             LockKey{"acct", ToBytes("held")}));
}

TEST_F(DiscProcessTest, DefaultKnobsSameSeedTracesAreIdentical) {
  // Two identical rigs, same seed, default knobs: the per-transaction trace
  // dumps must be byte-identical. Guards the lock-table and cache rewrites
  // against any hash-iteration-order leak into grant order or timing.
  const uint64_t t = Transid{1, 0, 9}.Pack();
  auto run = [t]() {
    CoalesceRig rig(0);
    rig.sim.GetTrace().set_enabled(true);
    rig.RunInserts(8);
    return rig.sim.GetTrace().Dump(t);
  };
  const std::string d1 = run();
  const std::string d2 = run();
  // The dump holds the transaction's events, not just its header line.
  EXPECT_NE(d1.find("lock.acquire"), std::string::npos) << d1;
  EXPECT_EQ(d1, d2);
}

}  // namespace
}  // namespace encompass::discprocess
