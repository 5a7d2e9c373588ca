// End-to-end tests for per-transaction causal tracing: a three-node cluster
// runs one distributed commit and one unilateral abort, and the TraceLog must
// contain the exact protocol-level event sequence — deterministically, so the
// same seed yields a byte-identical Dump().

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "encompass/deployment.h"
#include "test_util.h"
#include "tmf/file_system.h"
#include "tmf/tmf_protocol.h"

namespace encompass {
namespace {

using app::Deployment;
using app::NodeDeployment;
using testutil::TestClient;

struct Rig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<Deployment> deploy;
  TestClient* client = nullptr;
  std::unique_ptr<tmf::FileSystem> fs;
};

// Three nodes, one audited file per node; the client lives on node 1.
// `group_commit_window` > 0 opens the MAT/audit batching window (0 keeps the
// default immediate-write behaviour). The network counts messages per
// transaction; `trace` turns the TraceLog on from the start.
Rig MakeRig(uint64_t seed, SimDuration group_commit_window = 0,
            bool trace = true) {
  Rig rig;
  rig.sim = std::make_unique<sim::Simulation>(seed);
  rig.sim->GetTrace().set_enabled(trace);
  net::NetworkConfig net;
  net.track_messages = true;
  rig.deploy = std::make_unique<Deployment>(rig.sim.get(), net);
  for (int n = 1; n <= 3; ++n) {
    app::NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{"$DATA" + std::to_string(n),
                                    {app::FileSpec{"f" + std::to_string(n)}},
                                    {}}};
    spec.tmp_config.mat_group_commit_window = group_commit_window;
    spec.audit_config.group_commit_window = group_commit_window;
    rig.deploy->AddNode(spec);
  }
  rig.deploy->LinkAll();
  for (int n = 1; n <= 3; ++n) {
    rig.deploy->DefineFile("f" + std::to_string(n), static_cast<net::NodeId>(n),
                           "$DATA" + std::to_string(n));
  }
  rig.client = rig.deploy->GetNode(1)->node()->Spawn<TestClient>(2);
  rig.fs = std::make_unique<tmf::FileSystem>(rig.client, &rig.deploy->catalog());
  rig.sim->Run();
  return rig;
}

uint64_t Begin(Rig& rig) {
  auto* o = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  rig.sim->Run();
  EXPECT_TRUE(o->status.ok());
  auto t = tmf::DecodeTransidPayload(Slice(o->payload));
  EXPECT_TRUE(t.ok());
  return t->Pack();
}

Status Insert(Rig& rig, uint64_t transid, const std::string& file,
              const std::string& key, const std::string& value) {
  Status result = Status::Unavailable("no reply");
  rig.client->set_current_transid(transid);
  rig.fs->Insert(file, Slice(key), Slice(value),
                 [&result](const Status& s, const Bytes&) { result = s; });
  rig.client->set_current_transid(0);
  rig.sim->Run();
  return result;
}

Status End(Rig& rig, uint64_t transid) {
  auto* o = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                tmf::EncodeTransidPayload(Transid::Unpack(transid)),
                                transid);
  rig.sim->Run();
  return o->status;
}

// Protocol-level view of a transaction's trace: every event except the
// per-message send/deliver chatter and lock traffic, rendered as
// "kind@node(a,b)". This is the sequence the commit protocol promises.
std::vector<std::string> ProtocolSequence(const Rig& rig, uint64_t transid) {
  std::vector<std::string> out;
  for (const auto& e : rig.sim->GetTrace().Events(transid)) {
    switch (e.kind) {
      case sim::TraceEventKind::kMsgSend:
      case sim::TraceEventKind::kMsgDeliver:
      case sim::TraceEventKind::kLockAcquire:
      case sim::TraceEventKind::kLockRelease:
      case sim::TraceEventKind::kAuditForce:
        continue;
      default:
        break;
    }
    out.push_back(std::string(sim::TraceEventKindName(e.kind)) + "@" +
                  std::to_string(e.node) + "(" + std::to_string(e.a) + "," +
                  std::to_string(e.b) + ")");
  }
  return out;
}

TEST(TraceTest, DistributedCommitCausalSequence) {
  Rig rig = MakeRig(101);
  uint64_t t = Begin(rig);
  ASSERT_TRUE(Insert(rig, t, "f1", "k", "v1").ok());
  ASSERT_TRUE(Insert(rig, t, "f2", "k", "v2").ok());
  ASSERT_TRUE(Insert(rig, t, "f3", "k", "v3").ok());
  ASSERT_TRUE(End(rig, t).ok());

  // Figure 3 forward path, in causal order: the txn becomes known on the
  // remote participants (active), phase one runs (ending, audit forces on
  // all three nodes, remote votes), the commit record is written, and phase
  // two (ended) reaches each participant exactly once.
  const std::string phase2 = std::to_string(tmf::kTmfPhase2);
  std::vector<std::string> expected = {
      "txn.state@1(0,1)",      // home active -> ending
      "phase1.start@1(1,2)",   // phase 1: 1 local force, 2 children
      "txn.state@2(0,1)",      // child 2 active -> ending
      "phase1.start@2(1,0)",   // child 2 forces its audit
      "txn.state@3(0,1)",      // child 3 active -> ending
      "phase1.start@3(1,0)",   // child 3 forces its audit
      "phase1.done@2(1,0)",    // child 2 votes yes
      "phase1.done@3(1,0)",    // child 3 votes yes
      "phase1.done@1(1,0)",    // home: all votes in
      "commit.record@1(0,0)",  // commit point: record forced to the MAT
      "txn.state@1(1,2)",      // home ending -> ended
      "phase2.queued@1(" + phase2 + ",2)",  // phase 2 queued to node 2
      "phase2.queued@1(" + phase2 + ",3)",  // phase 2 queued to node 3
      "phase2.recv@2(0,0)",    // node 2 applies phase 2
      "txn.state@2(1,2)",      // node 2 ending -> ended
      "phase2.recv@3(0,0)",    // node 3 applies phase 2
      "txn.state@3(1,2)",      // node 3 ending -> ended
  };
  std::vector<std::string> actual = ProtocolSequence(rig, t);
  EXPECT_EQ(actual, expected);

  // Causality: every send's parent span is a distinct span that appeared
  // earlier in the trace. (Span ids are per-node — node tag in the high
  // bits, node-local counter below — so numeric order only holds within one
  // node, not along a cross-node causal chain.)
  std::set<uint32_t> seen;
  for (const auto& e : rig.sim->GetTrace().Events(t)) {
    if (e.kind == sim::TraceEventKind::kMsgSend && e.parent != 0) {
      EXPECT_NE(e.parent, e.span);
      EXPECT_TRUE(seen.count(e.parent))
          << "parent span " << e.parent << " never seen before span " << e.span;
    }
    seen.insert(e.span);
    EXPECT_EQ(e.transid, t);
  }
}

// Network attributes a message to the transid every message carries, so a
// transaction's message count is the same whether or not a reader traces it.
TEST(TraceTest, MessageAttributionDoesNotDependOnTracing) {
  auto count = [](bool trace) {
    Rig rig = MakeRig(101, 0, trace);
    uint64_t t = Begin(rig);
    EXPECT_TRUE(Insert(rig, t, "f2", "k", "v2").ok());
    EXPECT_TRUE(Insert(rig, t, "f3", "k", "v3").ok());
    EXPECT_TRUE(End(rig, t).ok());
    EXPECT_EQ(rig.sim->GetTrace().size() > 0, trace);
    return rig.deploy->cluster().network().PerTxnMessages()[t];
  };
  const uint64_t traced = count(true);
  EXPECT_GT(traced, 0u);
  EXPECT_EQ(count(false), traced);
}

TEST(TraceTest, UnilateralAbortCausalSequence) {
  Rig rig = MakeRig(101);
  uint64_t t = Begin(rig);
  ASSERT_TRUE(Insert(rig, t, "f1", "k", "v1").ok());
  ASSERT_TRUE(Insert(rig, t, "f2", "k", "v2").ok());
  // A single cut link would heal by routing through node 3, so fully
  // isolate the participant: both islands must abort autonomously.
  rig.deploy->cluster().IsolateNode(2);
  rig.sim->RunFor(Seconds(2));
  rig.deploy->cluster().ReconnectNode(2);
  rig.sim->Run();

  // Both sides abort autonomously; each island runs its own backout, so the
  // trace shows an abort.start/abort.done pair on node 1 AND on node 2.
  EXPECT_GE(rig.sim->GetStats().Counter("tmf.unilateral_aborts"), 1);
  std::vector<std::string> actual = ProtocolSequence(rig, t);
  const std::string abort_tag = std::to_string(tmf::kTmfAbortTxn);
  std::vector<std::string> expected = {
      "abort.start@1(0,0)",  // home decides: participant unreachable
      "txn.state@1(0,3)",    // home active -> aborting
      // The abort notification to the lost participant parks in the
      // safe-delivery queue (it cannot be delivered while isolated).
      "phase2.queued@1(" + abort_tag + ",2)",
      "abort.start@2(0,0)",  // node 2 decides on its own: home unreachable
      "txn.state@2(0,3)",    // node 2 active -> aborting
      "txn.state@2(3,4)",    // node 2 backout done: aborting -> aborted
      "abort.done@2(0,0)",
      "txn.state@1(3,4)",    // home backout done: aborting -> aborted
      "abort.done@1(0,0)",
  };
  EXPECT_EQ(actual, expected);
  // The write never reached the database on either side.
  EXPECT_TRUE(rig.deploy->GetNode(1)
                  ->storage()
                  .volumes.at("$DATA1")
                  ->ReadRecord("f1", Slice("k"))
                  .status.IsNotFound());
}

TEST(TraceTest, SameSeedSameTrace) {
  auto run = [](uint64_t seed) {
    Rig rig = MakeRig(seed);
    uint64_t t = Begin(rig);
    EXPECT_TRUE(Insert(rig, t, "f1", "k", "v1").ok());
    EXPECT_TRUE(Insert(rig, t, "f2", "k", "v2").ok());
    EXPECT_TRUE(End(rig, t).ok());
    return rig.sim->GetTrace().Dump(t);
  };
  std::string first = run(7);
  std::string second = run(7);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // bit-identical: spans, times, everything
  EXPECT_NE(first.find("msg.send"), std::string::npos);
  EXPECT_NE(first.find("commit.record"), std::string::npos);
  EXPECT_NE(first.find("lock.acquire"), std::string::npos);
  EXPECT_NE(first.find("audit.force"), std::string::npos);
}

TEST(TraceTest, ConcurrentCommitsCoalesceDeterministically) {
  // Two transactions commit concurrently: their commit-point MAT writes (and
  // the audit forces under them) coalesce via group commit. The whole
  // interleaving must stay deterministic — same seed, byte-identical traces —
  // and the batch accounting must be exact.
  struct RunResult {
    std::string dump1, dump2;
    int64_t mat_forces = 0;
    size_t mat_batches = 0;
    int64_t mat_batched_commits = 0;
    int64_t mat_max_batch = 0;
  };
  auto run = [](uint64_t seed) {
    // A window comfortably wider than the phase-1 completion spread (the two
    // audit forces serialize at ~8ms each) guarantees both commit points
    // land in one batch.
    Rig rig = MakeRig(seed, /*group_commit_window=*/Millis(20));
    uint64_t t1 = Begin(rig);
    uint64_t t2 = Begin(rig);
    EXPECT_TRUE(Insert(rig, t1, "f1", "ka", "v").ok());
    EXPECT_TRUE(Insert(rig, t1, "f2", "ka", "v").ok());
    EXPECT_TRUE(Insert(rig, t2, "f1", "kb", "v").ok());
    EXPECT_TRUE(Insert(rig, t2, "f2", "kb", "v").ok());
    // Issue both ENDs back to back so the commits overlap.
    auto* e1 = rig.client->CallRaw(
        net::Address(1, "$TMP"), tmf::kTmfEnd,
        tmf::EncodeTransidPayload(Transid::Unpack(t1)), t1);
    auto* e2 = rig.client->CallRaw(
        net::Address(1, "$TMP"), tmf::kTmfEnd,
        tmf::EncodeTransidPayload(Transid::Unpack(t2)), t2);
    rig.sim->Run();
    EXPECT_TRUE(e1->done && e1->status.ok());
    EXPECT_TRUE(e2->done && e2->status.ok());
    RunResult r;
    r.dump1 = rig.sim->GetTrace().Dump(t1);
    r.dump2 = rig.sim->GetTrace().Dump(t2);
    r.mat_forces = rig.sim->GetStats().Counter("tmf.mat_forces");
    const auto* sizes =
        rig.sim->GetStats().FindHistogram("tmf.mat_group_commit_size");
    if (sizes != nullptr) {
      r.mat_batches = sizes->count();
      r.mat_batched_commits = sizes->Sum();
      r.mat_max_batch = sizes->Max();
    }
    return r;
  };
  RunResult first = run(211);
  RunResult second = run(211);
  EXPECT_FALSE(first.dump1.empty());
  EXPECT_EQ(first.dump1, second.dump1);  // bit-identical across runs
  EXPECT_EQ(first.dump2, second.dump2);
  // Exact accounting: both commit records went through the MAT write path,
  // and every physical write is counted once.
  EXPECT_EQ(first.mat_batched_commits, 2);
  EXPECT_EQ(static_cast<int64_t>(first.mat_batches), first.mat_forces);
  EXPECT_EQ(first.mat_forces, 1);   // the two commit points share one write
  EXPECT_EQ(first.mat_max_batch, 2);
  EXPECT_EQ(first.dump1.find("commit.record") != std::string::npos, true);
  EXPECT_EQ(first.dump2.find("commit.record") != std::string::npos, true);
}

TEST(TraceTest, SafeDeliveryDrainsAfterReconnect) {
  Rig rig = MakeRig(131);
  uint64_t t = Begin(rig);
  ASSERT_TRUE(Insert(rig, t, "f1", "k", "v1").ok());
  ASSERT_TRUE(Insert(rig, t, "f2", "k", "v2").ok());

  // Isolate the child right after the commit record is written: phase 2
  // cannot be delivered, so it parks in the home TMP's safe-delivery queue.
  auto* o = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                tmf::EncodeTransidPayload(Transid::Unpack(t)), t);
  NodeDeployment* home = rig.deploy->GetNode(1);
  for (int i = 0; i < 1000 &&
                  home->storage().monitor_trail.Lookup(Transid::Unpack(t)) != 1;
       ++i) {
    rig.sim->RunFor(Micros(500));
  }
  rig.deploy->cluster().IsolateNode(2);
  rig.sim->RunFor(Seconds(1));
  EXPECT_TRUE(o->done);
  EXPECT_TRUE(o->status.ok());  // END never blocks on the partition
  EXPECT_GT(home->tmp()->PendingSafeDeliveries(), 0u);

  // The child rejoins: the queue drains and phase 2 applies exactly once.
  rig.deploy->cluster().ReconnectNode(2);
  rig.sim->RunFor(Seconds(10));
  EXPECT_EQ(home->tmp()->PendingSafeDeliveries(), 0u);
  EXPECT_EQ(rig.sim->GetStats().Counter("tmf.phase2_received"), 1);
  NodeDeployment* child = rig.deploy->GetNode(2);
  EXPECT_EQ(child->storage().monitor_trail.Lookup(Transid::Unpack(t)), 1);
  EXPECT_EQ(child->disc("$DATA2")->locks().held_count(), 0u);

  // The trace shows the queued phase 2 and exactly one receipt at node 2.
  int queued = 0, received = 0;
  for (const auto& e : rig.sim->GetTrace().Events(t)) {
    if (e.kind == sim::TraceEventKind::kPhase2Queued && e.b == 2) ++queued;
    if (e.kind == sim::TraceEventKind::kPhase2Recv && e.node == 2) ++received;
  }
  EXPECT_GE(queued, 1);
  EXPECT_EQ(received, 1);
}

}  // namespace
}  // namespace encompass
