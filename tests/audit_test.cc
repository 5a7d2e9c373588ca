// Tests for audit records, audit trails (force/volatility/the purge rule), the
// Monitor Audit Trail, and group commit in the AUDITPROCESS.

#include <gtest/gtest.h>

#include "audit/audit_process.h"
#include "audit/audit_record.h"
#include "audit/audit_trail.h"
#include "common/coding.h"
#include "os/cluster.h"
#include "os/process_pair.h"
#include "test_util.h"

namespace encompass::audit {
namespace {

using testutil::TestClient;

AuditRecord MakeRecord(uint64_t seq, const std::string& key) {
  AuditRecord rec;
  rec.transid = Transid{1, 0, seq};
  rec.volume = "$DATA1";
  rec.file = "acct";
  rec.op = storage::MutationOp::kUpdate;
  rec.key = ToBytes(key);
  rec.before = ToBytes("old");
  rec.after = ToBytes("new");
  return rec;
}

TEST(AuditRecordTest, EncodeDecodeRoundTrip) {
  AuditRecord rec = MakeRecord(42, "acct-7");
  rec.lsn = 99;
  Bytes encoded = rec.Encode();
  Slice in(encoded);
  auto decoded = AuditRecord::Decode(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded->transid, rec.transid);
  EXPECT_EQ(decoded->volume, "$DATA1");
  EXPECT_EQ(decoded->file, "acct");
  EXPECT_EQ(decoded->op, storage::MutationOp::kUpdate);
  EXPECT_EQ(decoded->key, rec.key);
  EXPECT_EQ(decoded->before, rec.before);
  EXPECT_EQ(decoded->after, rec.after);
  EXPECT_EQ(decoded->lsn, 99u);
}

TEST(AuditRecordTest, DecodeRejectsTruncation) {
  Bytes encoded = MakeRecord(1, "k").Encode();
  encoded.resize(encoded.size() / 2);
  Slice in(encoded);
  EXPECT_FALSE(AuditRecord::Decode(&in).ok());
}

TEST(AuditBatchTest, RoundTripAndCorruption) {
  std::vector<AuditRecord> batch{MakeRecord(1, "a"), MakeRecord(2, "b")};
  Bytes encoded = EncodeAuditBatch(batch);
  auto decoded = DecodeAuditBatch(Slice(encoded));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[1].transid.seq, 2u);
  encoded.resize(3);
  EXPECT_FALSE(DecodeAuditBatch(Slice(encoded)).ok());
}

TEST(AuditTrailTest, AppendAssignsMonotoneLsns) {
  AuditTrail trail("AT1");
  EXPECT_EQ(trail.Append(MakeRecord(1, "a")), 1u);
  EXPECT_EQ(trail.Append(MakeRecord(1, "b")), 2u);
  EXPECT_EQ(trail.Append(MakeRecord(2, "c")), 3u);
  EXPECT_EQ(trail.record_count(), 3u);
  EXPECT_EQ(trail.next_lsn(), 4u);
}

TEST(AuditTrailTest, ForceMovesDurableBoundary) {
  AuditTrail trail("AT1");
  trail.Append(MakeRecord(1, "a"));
  trail.Append(MakeRecord(1, "b"));
  EXPECT_EQ(trail.durable_lsn(), 0u);
  EXPECT_EQ(trail.Force(), 2u);
  EXPECT_EQ(trail.durable_lsn(), 2u);
  EXPECT_EQ(trail.Force(), 0u);  // nothing new
}

TEST(AuditTrailTest, DropVolatileLosesUnforcedSuffix) {
  AuditTrail trail("AT1");
  trail.Append(MakeRecord(1, "a"));
  trail.Force();
  trail.Append(MakeRecord(1, "b"));
  trail.Append(MakeRecord(1, "c"));
  trail.DropVolatile();
  EXPECT_EQ(trail.record_count(), 1u);
  EXPECT_EQ(trail.next_lsn(), 2u);
  // New appends continue from the durable boundary.
  EXPECT_EQ(trail.Append(MakeRecord(1, "d")), 2u);
}

TEST(AuditTrailTest, RecordsForTransactionFiltersByTransid) {
  AuditTrail trail("AT1");
  trail.Append(MakeRecord(1, "a"));
  trail.Append(MakeRecord(2, "b"));
  trail.Append(MakeRecord(1, "c"));
  auto recs = trail.RecordsForTransaction(Transid{1, 0, 1});
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(ToString(recs[0].key), "a");
  EXPECT_EQ(ToString(recs[1].key), "c");
}

TEST(AuditTrailTest, DurableRecordsAfterScansForwardOnly) {
  AuditTrail trail("AT1");
  for (int i = 0; i < 5; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  trail.Force();
  trail.Append(MakeRecord(1, "volatile"));
  auto recs = trail.DurableRecordsAfter(2);
  ASSERT_EQ(recs.size(), 3u);  // lsns 3,4,5; the unforced 6th is excluded
  EXPECT_EQ(recs[0].lsn, 3u);
  EXPECT_EQ(recs[2].lsn, 5u);
}

/// Purge limits up to `up_to_lsn` under which no transaction is live.
PurgeLimits NoneLive(uint64_t up_to_lsn = UINT64_MAX) {
  return PurgeLimits{up_to_lsn, [](const Transid&) { return false; }};
}

TEST(AuditTrailTest, FileRolloverAndPurge) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 10;
  AuditTrail trail("AT1", cfg);
  for (int i = 0; i < 35; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  EXPECT_EQ(trail.file_count(), 4u);
  trail.Force();
  // Purge up to LSN 25: the first two full files (1-10, 11-20) go; 21-30
  // reaches past the limit.
  size_t purged = trail.PurgeFinished(NoneLive(25));
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(trail.file_count(), 2u);
  EXPECT_EQ(trail.first_file_number(), 3u);
  EXPECT_EQ(trail.first_lsn(), 21u);
  // Remaining records still scannable.
  EXPECT_EQ(trail.DurableRecordsAfter(0).size(), 15u);
  // Without a limit, every sealed file goes; the open one always stays.
  EXPECT_EQ(trail.PurgeFinished(NoneLive()), 1u);
  EXPECT_EQ(trail.file_count(), 1u);
  EXPECT_EQ(trail.first_lsn(), 31u);
}

TEST(AuditTrailTest, PurgeKeepsUnforcedFiles) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 5;
  AuditTrail trail("AT1", cfg);
  for (int i = 0; i < 12; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  // Nothing forced: nothing purgeable.
  EXPECT_EQ(trail.PurgeFinished(NoneLive()), 0u);
  EXPECT_EQ(trail.file_count(), 3u);

  // Durable through LSN 7: file 1-5 goes, file 6-10 is still partly
  // volatile and stays, and so does everything behind it.
  AuditTrail partly("AT2", cfg);
  for (int i = 0; i < 7; ++i) partly.Append(MakeRecord(1, std::to_string(i)));
  partly.Force();
  for (int i = 7; i < 12; ++i) partly.Append(MakeRecord(1, std::to_string(i)));
  EXPECT_EQ(partly.PurgeFinished(NoneLive()), 1u);
  EXPECT_EQ(partly.first_lsn(), 6u);
  EXPECT_EQ(partly.durable_lsn(), 7u);
}

TEST(AuditTrailTest, PurgeKeepsFilesOfLiveTransactions) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 4;
  AuditTrail trail("AT1", cfg);
  // Transaction 7 writes LSN 6, in the second file; 20 other records
  // follow it, from transactions 100 up.
  for (uint64_t lsn = 1; lsn <= 26; ++lsn) {
    trail.Append(MakeRecord(lsn == 6 ? 7 : 100 + lsn, "k" + std::to_string(lsn)));
  }
  trail.Force();
  ASSERT_EQ(trail.file_count(), 7u);
  bool seven_live = true;
  auto live = [&seven_live](const Transid& t) {
    return seven_live && t.seq == 7;
  };
  // The first file goes; the file holding LSN 6 stops the purge, and with
  // it every file behind it.
  EXPECT_EQ(trail.PurgeFinished({UINT64_MAX, live}), 1u);
  EXPECT_EQ(trail.first_lsn(), 5u);
  auto images = trail.RecordsForTransaction(Transid{1, 0, 7});
  ASSERT_EQ(images.size(), 1u);
  EXPECT_EQ(images[0].lsn, 6u);
  EXPECT_EQ(trail.PurgeFinished({UINT64_MAX, live}), 0u);
  // Once it finishes, the next purge drops all the sealed files.
  seven_live = false;
  EXPECT_EQ(trail.PurgeFinished({UINT64_MAX, live}), 5u);
  EXPECT_EQ(trail.first_lsn(), 25u);
  EXPECT_TRUE(trail.RecordsForTransaction(Transid{1, 0, 7}).empty());
}

TEST(AuditTrailTest, DefaultPurgeLimitsPurgeNothing) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 4;
  AuditTrail trail("AT1", cfg);
  for (int i = 0; i < 10; ++i) trail.Append(MakeRecord(1, std::to_string(i)));
  trail.Force();
  ASSERT_EQ(trail.file_count(), 3u);
  // Limits that set nothing call every transaction live: sealed, durable
  // files stay.
  EXPECT_EQ(trail.PurgeFinished(PurgeLimits{}), 0u);
  EXPECT_EQ(trail.first_lsn(), 1u);
}

TEST(AuditTrailTest, DropVolatileAcrossFileBoundary) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 4;
  AuditTrail trail("AT1", cfg);
  for (int i = 0; i < 3; ++i) trail.Append(MakeRecord(1, "d" + std::to_string(i)));
  trail.Force();
  // LSNs 4-7 are volatile and span files 1 (LSN 4) and 2 (LSNs 5-7).
  for (int i = 0; i < 4; ++i) trail.Append(MakeRecord(2, "v" + std::to_string(i)));
  ASSERT_EQ(trail.file_count(), 2u);
  trail.DropVolatile();
  EXPECT_EQ(trail.file_count(), 1u);
  EXPECT_EQ(trail.record_count(), 3u);
  EXPECT_EQ(trail.next_lsn(), 4u);
  // LSN 4 refills file 1; LSN 5 starts file 2 again.
  EXPECT_EQ(trail.Append(MakeRecord(3, "n4")), 4u);
  EXPECT_EQ(trail.file_count(), 1u);
  EXPECT_EQ(trail.Append(MakeRecord(3, "n5")), 5u);
  EXPECT_EQ(trail.file_count(), 2u);
  trail.Force();
  auto recs = trail.DurableRecordsAfter(2);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].lsn, 3u);
  EXPECT_EQ(ToString(recs[0].key), "d2");
  EXPECT_EQ(recs[1].lsn, 4u);
  EXPECT_EQ(ToString(recs[1].key), "n4");
  EXPECT_EQ(recs[2].lsn, 5u);
  EXPECT_EQ(ToString(recs[2].key), "n5");
  EXPECT_TRUE(trail.RecordsForTransaction(Transid{1, 0, 2}).empty());
}

TEST(AuditTrailTest, PurgedTrailKeepsPositionalLsns) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 3;
  AuditTrail trail("AT1", cfg);
  // LSN n belongs to transaction 1 + n % 2 and has key "k<n>".
  for (int lsn = 1; lsn <= 8; ++lsn) {
    trail.Append(MakeRecord(1 + lsn % 2, "k" + std::to_string(lsn)));
  }
  trail.Force();
  EXPECT_EQ(trail.PurgeFinished(NoneLive(6)), 2u);  // 1-3 and 4-6 go; 7-8 stay
  EXPECT_EQ(trail.record_count(), 2u);
  auto odd = trail.RecordsForTransaction(Transid{1, 0, 2});
  ASSERT_EQ(odd.size(), 1u);
  EXPECT_EQ(odd[0].lsn, 7u);
  EXPECT_EQ(ToString(odd[0].key), "k7");
  auto durable = trail.DurableRecordsAfter(0);
  ASSERT_EQ(durable.size(), 2u);
  EXPECT_EQ(durable[0].lsn, 7u);
  EXPECT_EQ(durable[1].lsn, 8u);
  EXPECT_EQ(ToString(durable[1].key), "k8");
  EXPECT_EQ(trail.DurableRecordsAfter(7).size(), 1u);
  EXPECT_EQ(trail.Append(MakeRecord(1, "k9")), 9u);
  // A node failure after the purge: LSNs 9-10 were never forced. The next
  // append reuses LSN 9, and every survivor keeps its LSN.
  EXPECT_EQ(trail.Append(MakeRecord(1, "k10")), 10u);
  trail.DropVolatile();
  EXPECT_EQ(trail.first_lsn(), 7u);
  EXPECT_EQ(trail.record_count(), 2u);
  EXPECT_EQ(trail.Append(MakeRecord(2, "k9'")), 9u);
  trail.Force();
  durable = trail.DurableRecordsAfter(0);
  ASSERT_EQ(durable.size(), 3u);
  EXPECT_EQ(durable[0].lsn, 7u);
  EXPECT_EQ(ToString(durable[0].key), "k7");
  EXPECT_EQ(durable[2].lsn, 9u);
  EXPECT_EQ(ToString(durable[2].key), "k9'");
}

TEST(AuditTrailTest, EmptiedSingleFileIsReused) {
  AuditTrailConfig cfg;
  cfg.records_per_file = 2;
  AuditTrail trail("AT1", cfg);
  trail.Append(MakeRecord(1, "a"));
  trail.Append(MakeRecord(1, "b"));
  trail.Force();
  trail.Append(MakeRecord(2, "lost"));  // LSN 3 opens file 2
  ASSERT_EQ(trail.PurgeFinished(NoneLive(2)), 1u);  // file 2 is the only one
  trail.DropVolatile();                 // ... and holds nothing
  EXPECT_EQ(trail.file_count(), 1u);
  EXPECT_EQ(trail.first_file_number(), 2u);
  EXPECT_EQ(trail.record_count(), 0u);
  EXPECT_EQ(trail.next_lsn(), 3u);
  EXPECT_EQ(trail.Append(MakeRecord(3, "c")), 3u);
  EXPECT_EQ(trail.file_count(), 1u);
  trail.Force();
  auto recs = trail.DurableRecordsAfter(0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].lsn, 3u);
  EXPECT_EQ(ToString(recs[0].key), "c");
  EXPECT_TRUE(trail.RecordsForTransaction(Transid{1, 0, 2}).empty());
}

TEST(MonitorAuditTrailTest, CommitAndAbortLookup) {
  MonitorAuditTrail mat;
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 1}), -1);
  mat.AppendForced(CompletionRecord{Transid{1, 0, 1}, Completion::kCommitted});
  mat.AppendForced(CompletionRecord{Transid{1, 0, 2}, Completion::kAborted});
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 1}), 1);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 2}), 0);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 3}), -1);
  EXPECT_EQ(mat.size(), 2u);
}

TEST(MonitorAuditTrailTest, FirstCompletionWinsOverDuplicates) {
  MonitorAuditTrail mat;
  // Idempotent re-commits (phase-2 retries, takeover replays) append
  // duplicate records; the disposition answered must never change.
  mat.AppendForced(CompletionRecord{Transid{1, 0, 5}, Completion::kCommitted});
  mat.AppendForced(CompletionRecord{Transid{1, 0, 5}, Completion::kCommitted});
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 5}), 1);
  EXPECT_EQ(mat.size(), 2u);  // the log keeps both, the index keeps one
}

TEST(AuditTrailTest, MonitorLookupIsExactPerTransid) {
  MonitorAuditTrail mat;
  // Commit, then a late abort of the same transid: the first one stands.
  mat.AppendForced(CompletionRecord{Transid{1, 0, 63}, Completion::kCommitted});
  mat.AppendForced(CompletionRecord{Transid{1, 0, 63}, Completion::kAborted});
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 63}), 1);
  // Seq 64 opens the next 64-seq block.
  mat.AppendForced(CompletionRecord{Transid{1, 0, 64}, Completion::kAborted});
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 64}), 0);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 62}), -1);  // same block, never recorded
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 65}), -1);
  // Same seq, other cpu or home node: independent transactions.
  EXPECT_EQ(mat.Lookup(Transid{1, 1, 63}), -1);
  EXPECT_EQ(mat.Lookup(Transid{2, 0, 63}), -1);
  mat.AppendForced(CompletionRecord{Transid{1, 1, 63}, Completion::kAborted});
  mat.AppendForced(CompletionRecord{Transid{2, 0, 64}, Completion::kCommitted});
  EXPECT_EQ(mat.Lookup(Transid{1, 1, 63}), 0);
  EXPECT_EQ(mat.Lookup(Transid{2, 0, 64}), 1);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 63}), 1);
  EXPECT_EQ(mat.Lookup(Transid{1, 0, 64}), 0);
  EXPECT_EQ(mat.Lookup(Transid{2, 0, 63}), -1);
  // The largest seq a transid packs (40 bits), next to its block-mates.
  const uint64_t top = (uint64_t{1} << 40) - 1;
  mat.AppendForced(CompletionRecord{Transid{3, 7, top}, Completion::kCommitted});
  mat.AppendForced(CompletionRecord{Transid{3, 7, top - 1}, Completion::kAborted});
  EXPECT_EQ(mat.Lookup(Transid{3, 7, top}), 1);
  EXPECT_EQ(mat.Lookup(Transid{3, 7, top - 1}), 0);
  EXPECT_EQ(mat.Lookup(Transid{3, 7, top - 2}), -1);
  EXPECT_EQ(mat.Lookup(Transid{3, 6, top}), -1);
  EXPECT_EQ(mat.size(), 7u);
}

// -- AUDITPROCESS group commit ----------------------------------------------

class AuditGroupCommitTest : public ::testing::Test {
 protected:
  void Start(SimDuration window) {
    sim_ = std::make_unique<sim::Simulation>(11);
    cluster_ = std::make_unique<os::Cluster>(sim_.get());
    node_ = cluster_->AddNode(1);
    AuditProcessConfig acfg;
    acfg.trail = &trail_;
    acfg.group_commit_window = window;
    os::SpawnPair<AuditProcess>(node_, "$AUDIT", 0, 1, acfg);
    client_ = node_->Spawn<TestClient>(2);
    sim_->Run();
  }

  net::Address Audit() { return net::Address(1, "$AUDIT"); }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<os::Cluster> cluster_;
  os::Node* node_ = nullptr;
  AuditTrail trail_{"AT1"};
  TestClient* client_ = nullptr;
};

TEST_F(AuditGroupCommitTest, ConcurrentForcesCoalesce) {
  Start(/*window=*/0);
  // Four force requests in flight together: the first starts a physical
  // write; the other three arrive while it is in flight and share the next
  // one. Two writes total, batch sizes exactly {1, 3}.
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  auto* c = client_->CallRaw(Audit(), kAuditForce, {});
  auto* d = client_->CallRaw(Audit(), kAuditForce, {});
  sim_->Run();
  for (auto* out : {a, b, c, d}) {
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 2);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 2u);
  EXPECT_EQ(sizes->Sum(), 4);
  EXPECT_EQ(sizes->Min(), 1);
  EXPECT_EQ(sizes->Max(), 3);
}

TEST_F(AuditGroupCommitTest, BatchingWindowMergesIntoOneWrite) {
  Start(Millis(1));
  // With a batching window longer than the arrival spread, all four forces
  // land in one physical write.
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  auto* c = client_->CallRaw(Audit(), kAuditForce, {});
  auto* d = client_->CallRaw(Audit(), kAuditForce, {});
  sim_->Run();
  for (auto* out : {a, b, c, d}) {
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 1);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 1u);
  EXPECT_EQ(sizes->Max(), 4);
}

TEST_F(AuditGroupCommitTest, WriteRestartsAfterItsGatheringWindow) {
  const SimDuration window = Millis(1);
  Start(window);
  // Two forces share the first write. A third, arriving while that write is
  // in flight, waits for it to land and then opens a window of its own, so
  // its reply comes exactly window + kDiscForceLatency after the first's.
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  while (sim_->GetStats().Counter("audit.forces") < 1) {
    ASSERT_TRUE(sim_->Step());
  }
  auto* c = client_->CallRaw(Audit(), kAuditForce, {});
  SimTime first_reply = 0;
  while (!c->done) {
    ASSERT_TRUE(sim_->Step());
    if (first_reply == 0 && a->done) first_reply = sim_->Now();
  }
  const SimTime third_reply = sim_->Now();
  sim_->Run();
  for (auto* out : {a, b, c}) {
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 2);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 2u);
  EXPECT_EQ(sizes->Min(), 1);
  EXPECT_EQ(sizes->Max(), 2);
  EXPECT_EQ(third_reply - first_reply, window + kDiscForceLatency);
}

TEST_F(AuditGroupCommitTest, SequentialForcesDoNotCoalesce) {
  Start(/*window=*/0);
  // Forces separated in time keep the pre-group-commit behaviour: one
  // physical write each.
  for (int i = 0; i < 3; ++i) {
    auto* out = client_->CallRaw(Audit(), kAuditForce, {});
    sim_->Run();
    ASSERT_TRUE(out->done);
    EXPECT_TRUE(out->status.ok());
  }
  EXPECT_EQ(sim_->GetStats().Counter("audit.forces"), 3);
  const auto* sizes = sim_->GetStats().FindHistogram("audit.group_commit_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 3u);
  EXPECT_EQ(sizes->Max(), 1);
}

TEST_F(AuditGroupCommitTest, ForceCoversRecordsAppendedBeforeWriteStart) {
  Start(/*window=*/0);
  // A record appended before the physical write starts is durable once the
  // force's reply arrives, even when the force coalesced into a batch.
  trail_.Append(AuditRecord{});
  auto* a = client_->CallRaw(Audit(), kAuditForce, {});
  auto* b = client_->CallRaw(Audit(), kAuditForce, {});
  sim_->Run();
  ASSERT_TRUE(a->done && b->done);
  EXPECT_TRUE(a->status.ok());
  EXPECT_TRUE(b->status.ok());
  EXPECT_EQ(trail_.durable_lsn(), 1u);
}

// -- AUDITPROCESS appends ---------------------------------------------------

class AuditAppendTest : public AuditGroupCommitTest {};

TEST_F(AuditAppendTest, TruncatedRecordRejectsTheWholeBatch) {
  Start(/*window=*/0);
  trail_.Append(MakeRecord(1, "before"));
  // The framing is intact, but the second record's body is cut short.
  Bytes second = MakeRecord(2, "b").Encode();
  second.resize(second.size() / 2);
  Bytes bad;
  PutVarint32(&bad, 2);
  PutLengthPrefixed(&bad, Slice(MakeRecord(2, "a").Encode()));
  PutLengthPrefixed(&bad, Slice(second));
  auto* rejected = client_->CallRaw(Audit(), kAuditAppend, bad);
  sim_->Run();
  ASSERT_TRUE(rejected->done);
  EXPECT_TRUE(rejected->status.IsCorruption());
  EXPECT_EQ(trail_.record_count(), 1u);
  EXPECT_EQ(trail_.next_lsn(), 2u);

  // A well-formed batch is appended as sent, with positional LSNs.
  auto* accepted = client_->CallRaw(
      Audit(), kAuditAppend, EncodeAuditBatch({MakeRecord(2, "a"), MakeRecord(2, "b")}));
  sim_->Run();
  ASSERT_TRUE(accepted->done);
  EXPECT_TRUE(accepted->status.ok());
  auto recs = trail_.RecordsForTransaction(Transid{1, 0, 2});
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].lsn, 2u);
  EXPECT_EQ(ToString(recs[1].key), "b");
  EXPECT_EQ(recs[1].lsn, 3u);
}

}  // namespace
}  // namespace encompass::audit
