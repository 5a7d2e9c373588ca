// Edge-case tests for TMF's failure handling: abandoned-transaction
// auto-abort, orphan phase-2/abort dispositions, orphaned disc locks at a
// participant, duplicate protocol messages, disposition queries, the
// reliable audit-delivery queue across AUDITPROCESS and DISCPROCESS
// failures, and the AUDITPROCESS's purge rule.
//
// Service CPU placement on each 4-CPU node (deployment order):
//   $AUD.<vol> pair on (0,1), <vol> DISCPROCESS pair on (1,2),
//   $BACKOUT pair on (2,3), $TMP pair on (3,0).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "apps/banking/banking.h"
#include "discprocess/disc_protocol.h"
#include "encompass/deployment.h"
#include "test_util.h"
#include "tmf/file_system.h"

namespace encompass::tmf {
namespace {

using app::Deployment;
using app::FileSpec;
using app::NodeDeployment;
using app::NodeSpec;
using app::VolumeSpec;
using testutil::TestClient;

class TmfEdgeTest : public ::testing::Test {
 protected:
  explicit TmfEdgeTest(SimDuration indoubt_resolve_interval = 0,
                       SimDuration auto_abort_timeout = Seconds(5))
      : sim_(71), deploy_(&sim_) {
    for (net::NodeId id : {1, 2}) {
      NodeSpec spec;
      spec.id = id;
      spec.node_config.num_cpus = 4;
      spec.tmp_config.auto_abort_timeout = auto_abort_timeout;
      spec.tmp_config.indoubt_resolve_interval = indoubt_resolve_interval;
      spec.volumes = {VolumeSpec{
          "$DATA" + std::to_string(id),
          {FileSpec{"f" + std::to_string(id)}},
          {}}};
      deploy_.AddNode(spec);
    }
    deploy_.LinkAll();
    deploy_.DefineFile("f1", 1, "$DATA1");
    deploy_.DefineFile("f2", 2, "$DATA2");
    client_ = deploy_.GetNode(1)->node()->Spawn<TestClient>(2);
    fs_ = std::make_unique<FileSystem>(client_, &deploy_.catalog());
    sim_.RunFor(Millis(5));
  }

  uint64_t Begin() {
    auto* o = client_->CallRaw(net::Address(1, "$TMP"), kTmfBegin, {});
    sim_.RunFor(Millis(10));
    EXPECT_TRUE(o->done && o->status.ok());
    auto t = DecodeTransidPayload(Slice(o->payload));
    return t.ok() ? t->Pack() : 0;
  }

  bool Insert(uint64_t transid, const std::string& file, const std::string& key) {
    bool ok = false;
    client_->set_current_transid(transid);
    fs_->Insert(file, Slice(key), Slice("v"),
                [&ok](const Status& s, const Bytes&) { ok = s.ok(); });
    client_->set_current_transid(0);
    sim_.RunFor(Millis(200));
    return ok;
  }

  /// Issues an update of f1 without running the simulation; `*ok` is set
  /// when the reply arrives.
  void UpdateF1(uint64_t transid, const std::string& key,
                const std::string& value, bool* ok) {
    client_->set_current_transid(transid);
    fs_->Update("f1", Slice(key), Slice(value),
                [ok](const Status& s, const Bytes&) { *ok = s.ok(); });
    client_->set_current_transid(0);
  }

  Status Finish(uint32_t tag, uint64_t transid) {
    auto* o = client_->CallRaw(net::Address(1, "$TMP"), tag,
                               EncodeTransidPayload(Transid::Unpack(transid)),
                               transid);
    sim_.RunFor(Seconds(2));
    EXPECT_TRUE(o->done);
    return o->status;
  }

  std::string Value(net::NodeId id, const std::string& key) {
    auto r = deploy_.GetNode(id)
                 ->storage()
                 .volumes.at("$DATA" + std::to_string(id))
                 ->ReadRecord("f" + std::to_string(id), Slice(key));
    return r.status.ok() ? ToString(r.value) : "<" + r.status.ToString() + ">";
  }

  audit::AuditTrail* Trail(net::NodeId id) {
    const std::string trail = "$DATA" + std::to_string(id) + ".AT";
    return deploy_.GetNode(id)->storage().trails.at(trail).get();
  }

  /// Audit records of `transid` in node `id`'s trail, durable or not.
  std::vector<audit::AuditRecord> TrailRecords(net::NodeId id,
                                               uint64_t transid) {
    return Trail(id)->RecordsForTransaction(Transid::Unpack(transid));
  }

  /// Commits transactions of kFillInserts inserts each into node `id`'s
  /// file until its audit trail has sealed `seals` more files (4096 records
  /// each, one record per insert).
  void CommitUntilSealed(net::NodeId id, int seals) {
    audit::AuditTrail* trail = Trail(id);
    auto open_file = [trail] {
      return trail->first_file_number() + trail->file_count();
    };
    const uint64_t target = open_file() + static_cast<uint64_t>(seals);
    while (open_file() < target) {
      uint64_t t = Begin();
      auto replies = std::make_shared<int>(0);
      auto failures = std::make_shared<int>(0);
      client_->set_current_transid(t);
      for (int i = 0; i < kFillInserts; ++i) {
        fs_->Insert("f" + std::to_string(id),
                    Slice("fill" + std::to_string(fills_++)), Slice("v"),
                    [replies, failures](const Status& s, const Bytes&) {
                      ++*replies;
                      if (!s.ok()) ++*failures;
                    });
      }
      client_->set_current_transid(0);
      for (int i = 0; i < 1000 && *replies < kFillInserts; ++i) {
        sim_.RunFor(Millis(10));
      }
      ASSERT_EQ(*replies, kFillInserts);
      ASSERT_EQ(*failures, 0);
      ASSERT_TRUE(Finish(kTmfEnd, t).ok());
    }
  }
  static constexpr int kFillInserts = 1024;

  int64_t FilesPurged() {
    return sim_.GetStats().Counter("audit.files_purged");
  }

  sim::Simulation sim_;
  Deployment deploy_;
  TestClient* client_;
  std::unique_ptr<FileSystem> fs_;
  int fills_ = 0;
};

TEST_F(TmfEdgeTest, AbandonedTransactionAutoAborts) {
  uint64_t t = Begin();
  ASSERT_TRUE(Insert(t, "f1", "k1"));
  // The "requester" never commits or aborts (as if its CPU died and the
  // abort was lost). The auto-abort timer reaps it and releases the lock.
  EXPECT_GT(deploy_.GetNode(1)->disc("$DATA1")->locks().held_count(), 0u);
  sim_.RunFor(Seconds(8));
  EXPECT_EQ(deploy_.GetNode(1)->tmp()->ActiveTransactionCount(), 0u);
  EXPECT_EQ(deploy_.GetNode(1)->disc("$DATA1")->locks().held_count(), 0u);
  EXPECT_GT(sim_.GetStats().Counter("tmf.auto_aborts"), 0);
  // The insert was backed out.
  EXPECT_TRUE(deploy_.GetNode(1)
                  ->storage()
                  .volumes.at("$DATA1")
                  ->ReadRecord("f1", Slice("k1"))
                  .status.IsNotFound());
  // END after the auto-abort is rejected.
  auto* end = client_->CallRaw(net::Address(1, "$TMP"), kTmfEnd,
                               EncodeTransidPayload(Transid::Unpack(t)), t);
  sim_.RunFor(Millis(100));
  EXPECT_TRUE(end->done && end->status.IsAborted());
}

TEST_F(TmfEdgeTest, InDoubtTransactionIsNotAutoAborted) {
  // Phase 1 answered affirmatively at node 2, then partition: node 2 must
  // HOLD the locks past any auto-abort timeout (the in-doubt rule).
  uint64_t t = Begin();
  ASSERT_TRUE(Insert(t, "f2", "k1"));
  client_->CallRaw(net::Address(1, "$TMP"), kTmfEnd,
                   EncodeTransidPayload(Transid::Unpack(t)), t);
  auto* mat1 = &deploy_.GetNode(1)->storage().monitor_trail;
  for (int i = 0; i < 2000 && mat1->Lookup(Transid::Unpack(t)) != 1; ++i) {
    sim_.RunFor(Micros(500));
  }
  deploy_.cluster().CutLink(1, 2);
  sim_.RunFor(Seconds(12));  // well past auto_abort_timeout
  EXPECT_GT(deploy_.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u)
      << "in-doubt locks must be held until the disposition arrives";
  deploy_.cluster().RestoreLink(1, 2);
  sim_.RunFor(Seconds(5));
  EXPECT_EQ(deploy_.GetNode(2)->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(deploy_.GetNode(2)->storage().monitor_trail.Lookup(
                Transid::Unpack(t)),
            1);
}

TEST_F(TmfEdgeTest, OrphanAbortReleasesUnknownTransactionState) {
  // Simulate the lost-remote-begin race: node 2's DISCPROCESS has locks
  // and data for a transaction its TMP has never heard of. An abort
  // message from the parent must still clean everything up.
  uint64_t t = Begin();
  ASSERT_TRUE(Insert(t, "f2", "k1"));
  // Wipe node 2's TMP entry by killing both TMP CPUs; the guardian
  // respawns a fresh (empty) TMP.
  auto* node2 = deploy_.GetNode(2);
  node2->node()->FailCpu(3);
  sim_.RunFor(Millis(20));
  node2->node()->FailCpu(0);
  sim_.RunFor(Millis(500));
  ASSERT_NE(node2->tmp(), nullptr);
  EXPECT_EQ(node2->tmp()->ActiveTransactionCount(), 0u);
  EXPECT_GT(node2->disc("$DATA2")->locks().held_count(), 0u);

  // Abort at home; the safe-delivery abort reaches node 2's new TMP, which
  // treats the unknown transaction as an orphan and backs it out.
  auto* abort = client_->CallRaw(net::Address(1, "$TMP"), kTmfAbort,
                                 EncodeTransidPayload(Transid::Unpack(t)), t);
  sim_.RunFor(Seconds(10));
  EXPECT_TRUE(abort->done && abort->status.ok());
  EXPECT_EQ(node2->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_TRUE(node2->storage()
                  .volumes.at("$DATA2")
                  ->ReadRecord("f2", Slice("k1"))
                  .status.IsNotFound());
  EXPECT_GT(sim_.GetStats().Counter("tmf.orphan_aborts"), 0);
}

TEST_F(TmfEdgeTest, DuplicateProtocolMessagesAreIdempotent) {
  uint64_t t = Begin();
  ASSERT_TRUE(Insert(t, "f2", "k1"));
  auto* end = client_->CallRaw(net::Address(1, "$TMP"), kTmfEnd,
                               EncodeTransidPayload(Transid::Unpack(t)), t);
  sim_.Run();
  ASSERT_TRUE(end->done && end->status.ok());
  // Re-deliver phase 2 and an abort for the long-resolved transaction
  // directly to node 2's TMP: both must be acknowledged no-ops.
  auto* p2 = client_->CallRaw(net::Address(2, "$TMP"), kTmfPhase2,
                              EncodeTransidPayload(Transid::Unpack(t)));
  auto* ab = client_->CallRaw(net::Address(2, "$TMP"), kTmfAbortTxn,
                              EncodeTransidPayload(Transid::Unpack(t)));
  sim_.Run();
  EXPECT_TRUE(p2->done && p2->status.ok());
  EXPECT_TRUE(ab->done && ab->status.ok());
  // The record is still there (the stale abort did not undo the commit).
  EXPECT_TRUE(deploy_.GetNode(2)
                  ->storage()
                  .volumes.at("$DATA2")
                  ->ReadRecord("f2", Slice("k1"))
                  .status.ok());
  EXPECT_EQ(deploy_.GetNode(2)->storage().monitor_trail.Lookup(
                Transid::Unpack(t)),
            1);
}

TEST_F(TmfEdgeTest, StatusQueryReportsDispositions) {
  uint64_t t1 = Begin();
  ASSERT_TRUE(Insert(t1, "f1", "k1"));
  auto* end = client_->CallRaw(net::Address(1, "$TMP"), kTmfEnd,
                               EncodeTransidPayload(Transid::Unpack(t1)), t1);
  sim_.Run();
  ASSERT_TRUE(end->status.ok());

  uint64_t t2 = Begin();
  ASSERT_TRUE(Insert(t2, "f1", "k2"));
  auto* abort = client_->CallRaw(net::Address(1, "$TMP"), kTmfAbort,
                                 EncodeTransidPayload(Transid::Unpack(t2)), t2);
  sim_.Run();
  ASSERT_TRUE(abort->status.ok());

  auto query = [&](uint64_t t) {
    auto* o = client_->CallRaw(net::Address(1, "$TMP"), kTmfStatus,
                               EncodeTransidPayload(Transid::Unpack(t)));
    sim_.Run();
    EXPECT_TRUE(o->done && o->status.ok());
    return o->payload.empty() ? 255 : o->payload[0];
  };
  EXPECT_EQ(query(t1), static_cast<uint8_t>(Disposition::kCommitted));
  EXPECT_EQ(query(t2), static_cast<uint8_t>(Disposition::kAborted));
  EXPECT_EQ(query(Transid{1, 0, 999999}.Pack()),
            static_cast<uint8_t>(Disposition::kUnknown));
}

TEST_F(TmfEdgeTest, ListTransactionsShowsInDoubtState) {
  uint64_t t = Begin();
  ASSERT_TRUE(Insert(t, "f2", "k1"));
  client_->CallRaw(net::Address(1, "$TMP"), kTmfEnd,
                   EncodeTransidPayload(Transid::Unpack(t)), t);
  auto* mat1 = &deploy_.GetNode(1)->storage().monitor_trail;
  for (int i = 0; i < 2000 && mat1->Lookup(Transid::Unpack(t)) != 1; ++i) {
    sim_.RunFor(Micros(500));
  }
  deploy_.cluster().CutLink(1, 2);
  sim_.RunFor(Seconds(1));

  auto* op = deploy_.GetNode(2)->node()->Spawn<TestClient>(2);
  sim_.RunFor(Millis(5));
  auto* list = op->CallRaw(net::Address(2, "$TMP"), kTmfListTxns, {});
  sim_.RunFor(Millis(50));
  ASSERT_TRUE(list->done && list->status.ok());
  auto entries = DecodeTxnList(Slice(list->payload));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].transid, Transid::Unpack(t));
  EXPECT_EQ((*entries)[0].state, static_cast<uint8_t>(TxnState::kEnding));
  EXPECT_FALSE((*entries)[0].is_home);
  EXPECT_EQ((*entries)[0].parent, 1);
  deploy_.cluster().RestoreLink(1, 2);
  sim_.RunFor(Seconds(5));
}

TEST_F(TmfEdgeTest, TxnListCodecRoundTrip) {
  std::vector<TxnListEntry> entries = {
      {Transid{1, 2, 3}, 1, true, 0},
      {Transid{5, 0, 99}, 3, false, 4},
  };
  auto decoded = DecodeTxnList(Slice(EncodeTxnList(entries)));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].transid, (Transid{1, 2, 3}));
  EXPECT_TRUE((*decoded)[0].is_home);
  EXPECT_EQ((*decoded)[1].state, 3);
  EXPECT_EQ((*decoded)[1].parent, 4);
  Bytes garbage = ToBytes("\x05trunc");
  EXPECT_FALSE(DecodeTxnList(Slice(garbage)).ok());
}

TEST_F(TmfEdgeTest, AuditPurgeDropsArchivedFiles) {
  // Never archived: ROLLFORWARD will not read this trail, so each seal
  // purges every finished file.
  CommitUntilSealed(1, 3);
  EXPECT_GE(FilesPurged(), 2);
  EXPECT_EQ(Trail(1)->file_count(), 1u);

  // Archived: every record after the archive LSN stays, however many
  // files follow, because ROLLFORWARD replays them.
  NodeDeployment* node1 = deploy_.GetNode(1);
  node1->ArchiveVolumes();
  const uint64_t archive_lsn = node1->storage().archives.at("$DATA1").archive_lsn;
  CommitUntilSealed(1, 3);
  EXPECT_LE(Trail(1)->first_lsn(), archive_lsn + 1);
  EXPECT_GE(Trail(1)->file_count(), 4u);
  EXPECT_EQ(Trail(1)->DurableRecordsAfter(archive_lsn).size(),
            Trail(1)->durable_lsn() - archive_lsn);

  // Re-archiving moves the floor: the next seal purges all but the files
  // holding records past the new archive LSN.
  node1->ArchiveVolumes();
  const uint64_t rearchive_lsn =
      node1->storage().archives.at("$DATA1").archive_lsn;
  CommitUntilSealed(1, 1);
  EXPECT_LE(Trail(1)->file_count(), 2u);
  EXPECT_GT(Trail(1)->first_lsn(), archive_lsn + 1);
  EXPECT_LE(Trail(1)->first_lsn(), rearchive_lsn + 1);
}

TEST_F(TmfEdgeTest, AuditQueueRedeliversAcrossAuditTakeover) {
  // Kill the AUDITPROCESS primary's CPU, then immediately run a
  // transaction: the disc's audit records queue and redeliver once the
  // audit backup takes over; the commit still forces them.
  auto* node1 = deploy_.GetNode(1);
  node1->node()->FailCpu(0);  // $AUD.$DATA1 primary
  uint64_t t = Begin();
  ASSERT_TRUE(Insert(t, "f1", "k1"));
  auto* end = client_->CallRaw(net::Address(1, "$TMP"), kTmfEnd,
                               EncodeTransidPayload(Transid::Unpack(t)), t);
  sim_.RunFor(Seconds(10));
  ASSERT_TRUE(end->done);
  EXPECT_TRUE(end->status.ok());
  auto* trail = node1->storage().trails.at("$DATA1.AT").get();
  auto images = trail->RecordsForTransaction(Transid::Unpack(t));
  EXPECT_EQ(images.size(), 1u);
  EXPECT_LE(images[0].lsn, trail->durable_lsn());  // forced at phase 1
}

// Both AUDITPROCESS CPUs of node 1 fail at once; CPU 1 also held the
// DISCPROCESS primary, whose backup on CPU 2 takes over. Until the guardian
// respawns the audit pair, every delivery of the new primary's audit records
// fails, and the records must wait in its queue rather than be lost.
void FailAuditPair(NodeDeployment* node) {
  node->node()->FailCpu(0);
  node->node()->FailCpu(1);
}

TEST_F(TmfEdgeTest, AuditQueueOutlivesADeadAuditPair) {
  auto* node1 = deploy_.GetNode(1);
  uint64_t t0 = Begin();
  ASSERT_TRUE(Insert(t0, "f1", "k1"));
  ASSERT_TRUE(Finish(kTmfEnd, t0).ok());

  FailAuditPair(node1);
  uint64_t t = Begin();
  bool updated = false;
  UpdateF1(t, "k1", "v2", &updated);
  ASSERT_TRUE(Insert(t, "f1", "k2"));
  EXPECT_TRUE(updated);
  sim_.RunFor(Seconds(1));
  EXPECT_GT(sim_.GetStats().Counter("disc.audit_redelivery"), 0)
      << "no delivery attempt failed: the audit pair was never away";

  // Each image reached the trail exactly once, and the backout finds them.
  std::vector<std::string> keys;
  for (const auto& rec : TrailRecords(1, t)) keys.push_back(ToString(rec.key));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"k1", "k2"}));
  EXPECT_TRUE(Finish(kTmfAbort, t).ok());
  EXPECT_EQ(Value(1, "k1"), "v");
  EXPECT_TRUE(Value(1, "k2").find("NotFound") != std::string::npos)
      << Value(1, "k2");
  EXPECT_EQ(node1->disc("$DATA1")->locks().held_count(), 0u);
}

TEST_F(TmfEdgeTest, FreshDiscBackupInheritsTheUndeliveredAuditQueue) {
  auto* node1 = deploy_.GetNode(1);
  uint64_t t0 = Begin();
  ASSERT_TRUE(Insert(t0, "f1", "k1"));
  ASSERT_TRUE(Finish(kTmfEnd, t0).ok());

  FailAuditPair(node1);
  uint64_t t = Begin();
  bool updated = false;
  UpdateF1(t, "k1", "v2", &updated);
  // The guardian respawns the audit pair and attaches a fresh backup to the
  // DISCPROCESS, whose update record is still queued: the attach must hand
  // the backup the queue.
  const int64_t attached = sim_.GetStats().Counter("deploy.backup_reattached");
  for (int i = 0; i < 1000 &&
                  sim_.GetStats().Counter("deploy.backup_reattached") == attached;
       ++i) {
    sim_.RunFor(Micros(100));
  }
  sim_.RunFor(Millis(1));  // the attach resynchronizes the backup
  ASSERT_TRUE(updated);
  ASSERT_TRUE(TrailRecords(1, t).empty()) << "delivered before the attach";

  // The primary dies before it redelivers: only the backup's copy of the
  // queue can bring the record to the trail. CPU 2 also held the test
  // client, so a new one finishes the transaction.
  node1->node()->FailCpu(2);
  client_ = node1->node()->Spawn<TestClient>(3);
  sim_.RunFor(Seconds(1));
  auto records = TrailRecords(1, t);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(ToString(records[0].key), "k1");
  EXPECT_EQ(ToString(records[0].before), "v");
  EXPECT_TRUE(Finish(kTmfAbort, t).ok());
  EXPECT_EQ(Value(1, "k1"), "v");
}

// ---------------------------------------------------------------------------
// Orphaned disc locks at a participant node
// ---------------------------------------------------------------------------

/// Runs the TMP's periodic in-doubt and orphan-lock sweep every 100 ms.
class OrphanLockTest : public TmfEdgeTest {
 protected:
  explicit OrphanLockTest(SimDuration auto_abort_timeout = Seconds(5))
      : TmfEdgeTest(Millis(100), auto_abort_timeout) {}

  /// Leaves a lock of `t` at node 2 that node 2's TMP never heard of: the
  /// update goes straight to node 2's DISCPROCESS, as an operation retry
  /// that raced a crash would, with no remote begin.
  uint64_t OrphanAtNode2() {
    uint64_t t0 = Begin();
    EXPECT_TRUE(Insert(t0, "f2", "k1"));
    EXPECT_TRUE(Finish(kTmfEnd, t0).ok());

    uint64_t t = Begin();
    EXPECT_TRUE(Insert(t, "f1", "k1"));  // home work: the MAT records t
    discprocess::DiscRequest req;
    req.file = "f2";
    req.key = ToBytes("k1");
    req.record = ToBytes("orphan");
    auto* o = client_->CallRaw(net::Address(2, "$DATA2"),
                               discprocess::kDiscUpdate, req.Encode(), t);
    sim_.RunFor(Millis(50));
    EXPECT_TRUE(o->done && o->status.ok());
    EXPECT_EQ(deploy_.GetNode(2)->disc("$DATA2")->locks().held_count(), 1u);

    // While the home still runs t, its answer is "unknown": the lock has an
    // owner after all, and the sweep leaves it alone.
    sim_.RunFor(Millis(500));
    EXPECT_GT(sim_.GetStats().Counter("tmf.resolves_sent"), 0);
    EXPECT_EQ(deploy_.GetNode(2)->disc("$DATA2")->locks().held_count(), 1u);
    return t;
  }
};

TEST_F(OrphanLockTest, ParticipantCommitsAnOrphanTheHomeCommitted) {
  uint64_t t = OrphanAtNode2();
  ASSERT_TRUE(Finish(kTmfEnd, t).ok());
  sim_.RunFor(Seconds(1));
  auto* node2 = deploy_.GetNode(2);
  EXPECT_EQ(node2->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(Value(2, "k1"), "orphan");
  EXPECT_EQ(node2->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.orphan_lock_commits"), 1);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.orphan_lock_aborts"), 0);
}

TEST_F(OrphanLockTest, ParticipantBacksOutAnOrphanTheHomeAborted) {
  uint64_t t = OrphanAtNode2();
  ASSERT_TRUE(Finish(kTmfAbort, t).ok());
  sim_.RunFor(Seconds(1));
  auto* node2 = deploy_.GetNode(2);
  EXPECT_EQ(node2->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(Value(2, "k1"), "v");  // the before-image, from node 2's trail
  EXPECT_EQ(node2->storage().monitor_trail.Lookup(Transid::Unpack(t)), 0);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.orphan_lock_aborts"), 1);
  EXPECT_EQ(sim_.GetStats().Counter("tmf.orphan_lock_commits"), 0);
}

// ---------------------------------------------------------------------------
// The purge rule: a finished audit file goes, a live transaction's stays
// ---------------------------------------------------------------------------

/// No auto-abort: the transactions these tests keep open must outlive
/// several audit-file seals.
class AuditPurgeTest : public OrphanLockTest {
 protected:
  AuditPurgeTest() : OrphanLockTest(/*auto_abort_timeout=*/0) {}
};

TEST_F(AuditPurgeTest, LongTransactionKeepsItsRecordsAcrossSeals) {
  // `t` stays open while three audit files are sealed after its update.
  // (Both the TMP and its lock say it is live here; the queue lane's
  // QueueLaneTest.AbortBacksOutFromAuditFilesSealedWhileItRan covers a
  // transaction only the TMP knows about.)
  CommitUntilSealed(1, 1);  // a finished file ahead of `t`'s
  uint64_t t0 = Begin();
  ASSERT_TRUE(Insert(t0, "f1", "long"));
  ASSERT_TRUE(Finish(kTmfEnd, t0).ok());
  uint64_t t = Begin();
  bool updated = false;
  UpdateF1(t, "long", "x", &updated);
  sim_.RunFor(Millis(200));
  ASSERT_TRUE(updated);

  CommitUntilSealed(1, 3);
  EXPECT_GE(FilesPurged(), 1);  // the finished file went
  ASSERT_EQ(TrailRecords(1, t).size(), 1u);
  EXPECT_LE(Trail(1)->first_lsn(), TrailRecords(1, t)[0].lsn);

  // The abort backs out from the kept before-image.
  EXPECT_TRUE(Finish(kTmfAbort, t).ok());
  EXPECT_EQ(Value(1, "long"), "v");
  // Finished, `t` no longer holds its file back.
  CommitUntilSealed(1, 1);
  EXPECT_TRUE(TrailRecords(1, t).empty());
}

TEST_F(AuditPurgeTest, OrphanLockHoldsItsRecordsUntilTheSweep) {
  // Node 2's TMP does not track `t`; only the DISCPROCESS lock says it is
  // live there.
  CommitUntilSealed(2, 1);  // a finished file ahead of the orphan's
  uint64_t t = OrphanAtNode2();
  NodeDeployment* node2 = deploy_.GetNode(2);
  TxnState state;
  ASSERT_FALSE(node2->tmp()->GetTxnState(Transid::Unpack(t), &state));

  CommitUntilSealed(2, 3);
  EXPECT_GE(FilesPurged(), 1);
  ASSERT_EQ(TrailRecords(2, t).size(), 1u);
  EXPECT_EQ(node2->disc("$DATA2")->locks().held_count(), 1u);

  // The home aborts; the sweep backs the orphan out from node 2's trail.
  ASSERT_TRUE(Finish(kTmfAbort, t).ok());
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(node2->disc("$DATA2")->locks().held_count(), 0u);
  EXPECT_EQ(Value(2, "k1"), "v");
  EXPECT_EQ(sim_.GetStats().Counter("tmf.orphan_lock_aborts"), 1);
  CommitUntilSealed(2, 1);
  EXPECT_TRUE(TrailRecords(2, t).empty());
}

}  // namespace
}  // namespace encompass::tmf
