// Robustness property tests:
//  * LockManager against a reference model under random workloads,
//  * every wire decoder against random byte soup (must reject, never crash,
//    never read out of bounds),
//  * ROLLFORWARD edge cases (idempotence, deletes, corrupt archive).

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "audit/audit_process.h"
#include "common/random.h"
#include "discprocess/disc_protocol.h"
#include "discprocess/lock_manager.h"
#include "storage/record.h"
#include "tmf/queue_lane.h"
#include "tmf/rollforward.h"
#include "tmf/tmf_protocol.h"

namespace encompass {
namespace {

// ---------------------------------------------------------------------------
// LockManager vs reference model
// ---------------------------------------------------------------------------

class LockModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockModelTest, MatchesReferenceModel) {
  using discprocess::LockKey;
  using discprocess::LockManager;
  discprocess::LockManager lm;

  // Reference: per record-key holder + FIFO queue (record locks only; the
  // cross-granularity rules have dedicated tests).
  struct Unit {
    uint64_t holder = 0;
    std::deque<uint64_t> waiters;
  };
  std::map<std::string, Unit> model;
  Random rng(GetParam());

  auto key_of = [](uint64_t k) {
    return LockKey{"f", ToBytes("r" + std::to_string(k))};
  };
  auto name_of = [](uint64_t k) { return "r" + std::to_string(k); };

  for (int step = 0; step < 5000; ++step) {
    uint64_t owner = 1 + rng.Uniform(8);
    uint64_t k = rng.Uniform(12);
    Transid t{1, 0, owner};
    switch (rng.Uniform(3)) {
      case 0: {  // acquire
        auto result = lm.Acquire(t, key_of(k));
        Unit& u = model[name_of(k)];
        if (u.holder == owner) {
          EXPECT_EQ(result, LockManager::AcquireResult::kGranted);
        } else if (u.holder == 0 && u.waiters.empty()) {
          EXPECT_EQ(result, LockManager::AcquireResult::kGranted);
          u.holder = owner;
        } else {
          EXPECT_EQ(result, LockManager::AcquireResult::kQueued);
          bool queued = false;
          for (uint64_t w : u.waiters) queued |= (w == owner);
          if (!queued && u.holder != owner) u.waiters.push_back(owner);
        }
        break;
      }
      case 1: {  // release all of owner
        auto grants = lm.ReleaseAll(t);
        // Model: free this owner's holds, remove from queues, promote FIFO.
        std::vector<std::pair<std::string, uint64_t>> promoted;
        for (auto& [name, u] : model) {
          for (auto it = u.waiters.begin(); it != u.waiters.end();) {
            if (*it == owner) it = u.waiters.erase(it);
            else ++it;
          }
          if (u.holder == owner) {
            u.holder = 0;
            if (!u.waiters.empty()) {
              u.holder = u.waiters.front();
              u.waiters.pop_front();
              promoted.emplace_back(name, u.holder);
            }
          }
        }
        ASSERT_EQ(grants.size(), promoted.size());
        for (const auto& g : grants) {
          bool found = false;
          for (const auto& [name, who] : promoted) {
            if (ToString(g.key.record) == name && g.owner.seq == who) found = true;
          }
          EXPECT_TRUE(found);
        }
        break;
      }
      case 2: {  // cancel a wait
        bool removed = lm.CancelWait(t, key_of(k));
        Unit& u = model[name_of(k)];
        bool model_removed = false;
        for (auto it = u.waiters.begin(); it != u.waiters.end(); ++it) {
          if (*it == owner) {
            u.waiters.erase(it);
            model_removed = true;
            break;
          }
        }
        EXPECT_EQ(removed, model_removed);
        break;
      }
    }
    // Spot-check Holds agreement.
    uint64_t probe_owner = 1 + rng.Uniform(8);
    uint64_t probe_key = rng.Uniform(12);
    bool model_holds = model.count(name_of(probe_key)) &&
                       model[name_of(probe_key)].holder == probe_owner;
    EXPECT_EQ(lm.Holds(Transid{1, 0, probe_owner}, key_of(probe_key)),
              model_holds);
  }
  // Final census agreement.
  size_t model_held = 0, model_waiting = 0;
  for (const auto& [name, u] : model) {
    (void)name;
    model_held += u.holder != 0 ? 1 : 0;
    model_waiting += u.waiters.size();
  }
  EXPECT_EQ(lm.held_count(), model_held);
  EXPECT_EQ(lm.waiter_count(), model_waiting);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockModelTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Decoder robustness: random byte soup must never crash a decoder.
// ---------------------------------------------------------------------------

TEST(DecoderFuzzTest, RandomBytesNeverCrashDecoders) {
  Random rng(31337);
  for (int round = 0; round < 2000; ++round) {
    size_t len = rng.Uniform(200);
    Bytes soup(len);
    for (auto& b : soup) b = static_cast<uint8_t>(rng.Next());
    Slice s1(soup);

    // Every decoder either succeeds (structurally valid by luck) or returns
    // an error; none may crash or over-read (ASAN-checked in debug runs).
    (void)storage::Record::Decode(Slice(soup));
    (void)discprocess::DiscRequest::Decode(Slice(soup));
    (void)discprocess::SeekReply::Decode(Slice(soup));
    (void)discprocess::ScanReply::Decode(Slice(soup));
    (void)discprocess::TxnStateChange::Decode(Slice(soup));
    (void)discprocess::LockOwnersReply::Decode(Slice(soup));
    (void)discprocess::PlannedBatch::Decode(Slice(soup));
    (void)discprocess::PlannedBatchReply::Decode(Slice(soup));
    (void)tmf::QueueTxn::Decode(Slice(soup));
    (void)tmf::QueueTxnReply::Decode(Slice(soup));
    (void)audit::DecodeAuditBatch(Slice(soup));
    (void)tmf::DecodeTxnList(Slice(soup));
    (void)tmf::DecodeTransidPayload(Slice(soup));
    Slice in1(soup);
    (void)audit::AuditRecord::Decode(&in1);
  }
}

// Every proper prefix of `full` must fail to decode.
template <typename Msg>
void ExpectTruncationsRejected(const Bytes& full) {
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Bytes truncated(full.begin(), full.begin() + cut);
    EXPECT_FALSE(Msg::Decode(Slice(truncated)).ok()) << "cut at " << cut;
  }
}

// One planned op of every kind, each with every field set.
std::vector<discprocess::PlannedOp> OneOpOfEveryKind() {
  using Kind = discprocess::PlannedOp::Kind;
  std::vector<discprocess::PlannedOp> ops;
  for (Kind kind : {Kind::kInsert, Kind::kUpdate, Kind::kDelete, Kind::kDelta}) {
    discprocess::PlannedOp op;
    op.kind = kind;
    op.transid = Transid{3, 1, 40 + ops.size()};
    op.file = "acct";
    op.key = ToBytes("key-" + std::to_string(ops.size()));
    op.record = ToBytes("record-image");
    op.field = "balance";
    op.delta = -17 - static_cast<int64_t>(ops.size());
    ops.push_back(std::move(op));
  }
  return ops;
}

void ExpectSameOps(const std::vector<discprocess::PlannedOp>& got,
                   const std::vector<discprocess::PlannedOp>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].transid, want[i].transid) << i;
    EXPECT_EQ(got[i].file, want[i].file) << i;
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].record, want[i].record) << i;
    EXPECT_EQ(got[i].field, want[i].field) << i;
    EXPECT_EQ(got[i].delta, want[i].delta) << i;
  }
}

TEST(DecoderFuzzTest, TruncationsOfValidMessagesAreRejectedCleanly) {
  discprocess::DiscRequest req;
  req.file = "acct";
  req.key = ToBytes("some-key");
  req.record = ToBytes("some-record-payload");
  req.field = "site";
  req.value = "cupertino";
  req.max_records = 99;
  Bytes full = req.Encode();
  ASSERT_TRUE(discprocess::DiscRequest::Decode(Slice(full)).ok());
  ExpectTruncationsRejected<discprocess::DiscRequest>(full);

  // The op codec shared by the DISCPROCESS batch and the queue-lane submit.
  discprocess::PlannedBatch batch;
  batch.ops = OneOpOfEveryKind();
  full = batch.Encode();
  auto decoded_batch = discprocess::PlannedBatch::Decode(Slice(full));
  ASSERT_TRUE(decoded_batch.ok());
  ExpectSameOps(decoded_batch->ops, batch.ops);
  ExpectTruncationsRejected<discprocess::PlannedBatch>(full);

  tmf::QueueTxn txn;
  txn.declared = {"acct", "markers"};
  txn.ops = OneOpOfEveryKind();
  full = txn.Encode();
  auto decoded_txn = tmf::QueueTxn::Decode(Slice(full));
  ASSERT_TRUE(decoded_txn.ok());
  EXPECT_EQ(decoded_txn->declared, txn.declared);
  ExpectSameOps(decoded_txn->ops, txn.ops);
  ExpectTruncationsRejected<tmf::QueueTxn>(full);
}

TEST(DecoderFuzzTest, PlannedOpKindOutsideTheEnumIsRejected) {
  discprocess::PlannedBatch batch;
  batch.ops = OneOpOfEveryKind();
  batch.ops.resize(1);
  Bytes full = batch.Encode();
  ASSERT_TRUE(discprocess::PlannedBatch::Decode(Slice(full)).ok());
  // The kind byte follows the varint op count.
  for (uint8_t kind : {0, 5, 255}) {
    full[1] = kind;
    EXPECT_FALSE(discprocess::PlannedBatch::Decode(Slice(full)).ok())
        << "kind " << int{kind};
  }
}

// ---------------------------------------------------------------------------
// ROLLFORWARD edges
// ---------------------------------------------------------------------------

audit::AuditRecord MakeAudit(uint64_t seq, storage::MutationOp op,
                             const std::string& key, const std::string& before,
                             const std::string& after) {
  audit::AuditRecord rec;
  rec.transid = Transid{1, 0, seq};
  rec.volume = "$V";
  rec.file = "f";
  rec.op = op;
  rec.key = ToBytes(key);
  rec.before = ToBytes(before);
  rec.after = ToBytes(after);
  return rec;
}

/// ROLLFORWARD with nothing negotiated between the plan and the execution.
Result<tmf::RollforwardReport> PlanAndExecute(
    const tmf::VolumeRecoveryTask& task, const audit::MonitorAuditTrail* mat) {
  auto plan = tmf::PlanRollforward(task, mat);
  ENCOMPASS_RETURN_IF_ERROR(plan.status());
  return tmf::ExecuteRollforward(task, *plan);
}

TEST(RollforwardEdgeTest, RedoOfDeletesAndReruns) {
  storage::Volume vol("$V");
  storage::FileOptions opt;
  opt.audited = true;
  vol.CreateFile("f", storage::FileOrganization::kKeySequenced, opt);
  vol.Mutate("f", storage::MutationOp::kInsert, Slice("a"), Slice("1"));
  vol.Mutate("f", storage::MutationOp::kInsert, Slice("b"), Slice("2"));
  vol.Flush();
  const tmf::VolumeArchive archive{vol.Archive(), 0};

  audit::AuditTrail trail("AT");
  audit::MonitorAuditTrail mat;
  // Committed txn 1: update a, delete b, insert c.
  trail.Append(MakeAudit(1, storage::MutationOp::kUpdate, "a", "1", "10"));
  trail.Append(MakeAudit(1, storage::MutationOp::kDelete, "b", "2", ""));
  trail.Append(MakeAudit(1, storage::MutationOp::kInsert, "c", "", "30"));
  // Aborted txn 2 must be ignored.
  trail.Append(MakeAudit(2, storage::MutationOp::kUpdate, "a", "10", "666"));
  trail.Force();
  mat.AppendForced({Transid{1, 0, 1}, audit::Completion::kCommitted});
  mat.AppendForced({Transid{1, 0, 2}, audit::Completion::kAborted});

  const tmf::VolumeRecoveryTask task{&vol, &trail, &archive};
  auto report = PlanAndExecute(task, &mat);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_applied, 3u);
  EXPECT_EQ(report->txns_committed, 1u);
  EXPECT_EQ(report->txns_discarded, 1u);
  EXPECT_EQ(ToString(vol.ReadRecord("f", Slice("a")).value), "10");
  EXPECT_TRUE(vol.ReadRecord("f", Slice("b")).status.IsNotFound());
  EXPECT_EQ(ToString(vol.ReadRecord("f", Slice("c")).value), "30");

  // Rollforward is idempotent: running it again yields the same state.
  auto report2 = PlanAndExecute(task, &mat);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(ToString(vol.ReadRecord("f", Slice("a")).value), "10");
  EXPECT_TRUE(vol.ReadRecord("f", Slice("b")).status.IsNotFound());
  EXPECT_EQ(vol.Find("f")->record_count(), 2u);
}

TEST(RollforwardEdgeTest, UnknownDispositionWithoutResolverIsPresumedAbort) {
  // Regression: an after-image whose transid has no MAT completion record
  // and no negotiated answer used to be counted through a default-inserted
  // disposition entry, skewing `negotiated`. It must fall to presumed abort
  // — discarded, with negotiated untouched.
  storage::Volume vol("$V");
  storage::FileOptions opt;
  opt.audited = true;
  vol.CreateFile("f", storage::FileOrganization::kKeySequenced, opt);
  vol.Mutate("f", storage::MutationOp::kInsert, Slice("a"), Slice("1"));
  vol.Flush();
  const tmf::VolumeArchive archive{vol.Archive(), 0};

  audit::AuditTrail trail("AT");
  audit::MonitorAuditTrail mat;  // empty: no completion record for txn 7
  trail.Append(MakeAudit(7, storage::MutationOp::kUpdate, "a", "1", "77"));
  trail.Force();

  const tmf::VolumeRecoveryTask task{&vol, &trail, &archive};
  auto plan = tmf::PlanRollforward(task, &mat);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->unresolved, (std::vector<Transid>{Transid{1, 0, 7}}));
  auto report = tmf::ExecuteRollforward(task, *plan);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_considered, 1u);
  EXPECT_EQ(report->redo_applied, 0u);
  EXPECT_EQ(report->txns_committed, 0u);
  EXPECT_EQ(report->txns_discarded, 1u);
  EXPECT_EQ(report->negotiated, 0u);
  // The image was discarded: the volume shows the archived value.
  EXPECT_EQ(ToString(vol.ReadRecord("f", Slice("a")).value), "1");

  // The same plan once the caller has negotiated a commit: exactly one
  // negotiated disposition, and the image applies.
  plan->dispositions[Transid{1, 0, 7}] = tmf::Disposition::kCommitted;
  auto report2 = tmf::ExecuteRollforward(task, *plan);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->negotiated, 1u);
  EXPECT_EQ(report2->redo_applied, 1u);
  EXPECT_EQ(report2->txns_committed, 1u);
  EXPECT_EQ(report2->txns_discarded, 0u);
  EXPECT_EQ(ToString(vol.ReadRecord("f", Slice("a")).value), "77");
}

TEST(RollforwardEdgeTest, CorruptArchiveRejected) {
  storage::Volume vol("$V");
  vol.CreateFile("f", storage::FileOrganization::kKeySequenced);
  tmf::VolumeArchive archive{vol.Archive(), 0};
  archive.image.resize(archive.image.size() / 2);
  audit::AuditTrail trail("AT");
  EXPECT_FALSE(PlanAndExecute({&vol, &trail, &archive}, nullptr).ok());
}

TEST(RollforwardEdgeTest, TrailPurgedPastTheArchiveRejected) {
  storage::Volume vol("$V");
  storage::FileOptions opt;
  opt.audited = true;
  vol.CreateFile("f", storage::FileOrganization::kKeySequenced, opt);
  vol.Flush();
  audit::AuditTrailConfig cfg;
  cfg.records_per_file = 2;
  audit::AuditTrail trail("AT", cfg);
  audit::MonitorAuditTrail mat;
  for (int i = 0; i < 5; ++i) {
    trail.Append(MakeAudit(1, storage::MutationOp::kInsert,
                           "k" + std::to_string(i), "", "v"));
  }
  trail.Force();
  mat.AppendForced({Transid{1, 0, 1}, audit::Completion::kCommitted});
  // Files 1-2 and 3-4 go: the trail now starts at LSN 5.
  ASSERT_EQ(trail.PurgeFinished({UINT64_MAX, [](const Transid&) { return false; }}),
            2u);
  ASSERT_EQ(trail.first_lsn(), 5u);

  // Records 3 and 4 are gone past an archive at LSN 2: refuse.
  tmf::VolumeArchive archive{vol.Archive(), 2};
  const tmf::VolumeRecoveryTask task{&vol, &trail, &archive};
  auto refused = tmf::PlanRollforward(task, &mat);
  EXPECT_TRUE(refused.status().IsNotFound()) << refused.status().ToString();
  EXPECT_TRUE(vol.ReadRecord("f", Slice("k4")).status.IsNotFound());
  archive.archive_lsn = 4;  // the trail reaches back to the archive
  auto report = PlanAndExecute(task, &mat);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_applied, 1u);
  EXPECT_EQ(ToString(vol.ReadRecord("f", Slice("k4")).value), "v");
}

TEST(RollforwardEdgeTest, MissingInputsRejected) {
  const tmf::VolumeRecoveryTask task;
  EXPECT_TRUE(tmf::PlanRollforward(task, nullptr).status().IsInvalidArgument());
  EXPECT_TRUE(tmf::ExecuteRollforward(task, tmf::RollforwardPlan{})
                  .status()
                  .IsInvalidArgument());
}

TEST(RollforwardEdgeTest, UnknownWithoutResolverIsPresumedAbort) {
  storage::Volume vol("$V");
  storage::FileOptions opt;
  opt.audited = true;
  vol.CreateFile("f", storage::FileOrganization::kKeySequenced, opt);
  vol.Flush();
  const tmf::VolumeArchive archive{vol.Archive(), 0};
  audit::AuditTrail trail("AT");
  audit::MonitorAuditTrail mat;  // empty: no local disposition
  trail.Append(MakeAudit(9, storage::MutationOp::kInsert, "x", "", "v"));
  trail.Force();
  // Nothing negotiated: unknown disposition -> discard (presumed abort).
  auto report = PlanAndExecute({&vol, &trail, &archive}, &mat);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->redo_applied, 0u);
  EXPECT_EQ(report->txns_discarded, 1u);
  EXPECT_TRUE(vol.ReadRecord("f", Slice("x")).status.IsNotFound());
}

}  // namespace
}  // namespace encompass
