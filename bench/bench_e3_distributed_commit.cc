// E3 — the distributed commit protocol. Measures phase-1/phase-2 cost as a
// function of the number of participating nodes, and demonstrates the abort
// paths: a node inaccessible at phase-1 time forces the commit attempt to
// fail; a partition during phase two never blocks the home node's
// END-TRANSACTION (locks on the inaccessible node stay held until the
// network heals). Also shows the broadcast-locally / targeted-remotely
// design decision (ablation: what full network broadcast would cost).

#include "bench_util.h"
#include "test_util.h"
#include "tmf/tmf_protocol.h"

namespace encompass::bench {
namespace {

using testutil::TestClient;

struct DistRig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<app::Deployment> deploy;
  TestClient* client = nullptr;
  std::unique_ptr<tmf::FileSystem> fs;
};

/// N nodes, each with one audited file "fN"; node 1 is the client's home.
DistRig MakeDistRig(uint64_t seed, int nodes) {
  DistRig rig;
  rig.sim = std::make_unique<sim::Simulation>(seed);
  rig.deploy = std::make_unique<app::Deployment>(rig.sim.get());
  for (int n = 1; n <= nodes; ++n) {
    app::NodeSpec spec;
    spec.id = static_cast<net::NodeId>(n);
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{
        "$DATA" + std::to_string(n),
        {app::FileSpec{"f" + std::to_string(n)}},
        {}}};
    rig.deploy->AddNode(spec);
  }
  rig.deploy->LinkAll();
  for (int n = 1; n <= nodes; ++n) {
    rig.deploy->DefineFile("f" + std::to_string(n), static_cast<net::NodeId>(n),
                           "$DATA" + std::to_string(n));
  }
  rig.client = rig.deploy->GetNode(1)->node()->Spawn<TestClient>(2);
  rig.fs = std::make_unique<tmf::FileSystem>(rig.client, &rig.deploy->catalog());
  rig.sim->Run();
  return rig;
}

/// Runs one transaction that writes a record on each of `participants`
/// nodes, then commits. Returns commit latency (or -1).
SimDuration RunDistributedTxn(DistRig& rig, int participants, int txn_no) {
  auto* begin = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  rig.sim->Run();
  if (!begin->status.ok()) return -1;
  auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
  for (int n = 1; n <= participants; ++n) {
    bool ok = false;
    rig.client->set_current_transid(transid->Pack());
    rig.fs->Insert("f" + std::to_string(n),
                   Slice("k" + std::to_string(txn_no)), Slice("v"),
                   [&ok](const Status& s, const Bytes&) { ok = s.ok(); });
    rig.client->set_current_transid(0);
    rig.sim->Run();
    if (!ok) return -1;
  }
  SimTime start = rig.sim->Now();
  auto* end = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                  tmf::EncodeTransidPayload(*transid),
                                  transid->Pack());
  // Measure at the END reply (trailing phase-2 deliveries don't count
  // against commit latency), then drain remaining events.
  SimDuration latency = -1;
  for (int i = 0; i < 100000 && !end->done; ++i) {
    rig.sim->RunFor(Micros(200));
    if (end->done) latency = rig.sim->Now() - start;
  }
  if (end->done && latency < 0) latency = rig.sim->Now() - start;
  rig.sim->Run();
  return end->status.ok() ? latency : -1;
}

void TableCommitCostVsParticipants() {
  Header("E3.a commit cost vs participating nodes");
  printf("%14s %16s %14s %14s %16s\n", "participants", "commit (ms)",
         "phase1 msgs", "remote begins", "broadcasts");
  for (int participants : {1, 2, 3, 4, 6}) {
    DistRig rig = MakeDistRig(61, /*nodes=*/6);
    // Warm one txn, then measure the second.
    RunDistributedTxn(rig, participants, 0);
    auto& stats = rig.sim->GetStats();
    int64_t p1_before = stats.Counter("tmf.phase1_sent");
    int64_t rb_before = stats.Counter("tmf.remote_begins");
    int64_t bc_before = stats.Counter("tmf.state_broadcasts");
    SimDuration latency = RunDistributedTxn(rig, participants, 1);
    printf("%14d %16.2f %14lld %14lld %16lld\n", participants,
           static_cast<double>(latency) / 1e3,
           (long long)(stats.Counter("tmf.phase1_sent") - p1_before),
           (long long)(stats.Counter("tmf.remote_begins") - rb_before),
           (long long)(stats.Counter("tmf.state_broadcasts") - bc_before));
  }
  printf("(phase-1 messages = participants-1, targeted; within a node,\n"
         " state changes broadcast to all CPUs over the IPC bus)\n");
}

void TableBroadcastAblation() {
  Header("E3.b ablation: targeted notification vs broadcast-to-all-nodes");
  // The paper chose to notify only participating nodes. Count the network
  // messages a broadcast-to-everyone design would have sent instead.
  DistRig rig = MakeDistRig(67, /*nodes=*/6);
  const int kTxns = 20;
  for (int i = 0; i < kTxns; ++i) {
    RunDistributedTxn(rig, /*participants=*/2, i);
  }
  auto& stats = rig.sim->GetStats();
  long long actual = stats.Counter("tmf.phase1_sent") +
                     stats.Counter("tmf.safe_queued") +
                     stats.Counter("tmf.remote_begins");
  // Broadcast design: every state change (4 per txn) to every other node.
  long long broadcast = static_cast<long long>(kTxns) * 4 * (6 - 1);
  ReportSimStats("e3b", rig.sim->GetStats());
  ReportValue("e3b.targeted_msgs", static_cast<double>(actual));
  printf("targeted (paper's design) : %lld TMP network messages\n", actual);
  printf("broadcast-to-all ablation : %lld TMP network messages (%.1fx)\n",
         broadcast, static_cast<double>(broadcast) / static_cast<double>(actual));
}

void TableAbortPaths() {
  Header("E3.c protocol failure paths");
  printf("%-52s %10s\n", "scenario", "outcome");
  // Participant inaccessible at phase 1.
  {
    DistRig rig = MakeDistRig(71, 3);
    auto* begin = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    rig.sim->Run();
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    bool ok = false;
    rig.client->set_current_transid(transid->Pack());
    rig.fs->Insert("f2", Slice("k"), Slice("v"),
                   [&ok](const Status& s, const Bytes&) { ok = s.ok(); });
    rig.client->set_current_transid(0);
    rig.sim->Run();
    rig.deploy->cluster().IsolateNode(2);  // before END
    auto* end = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                    tmf::EncodeTransidPayload(*transid),
                                    transid->Pack());
    rig.sim->RunFor(Seconds(10));
    printf("%-52s %10s\n", "participant inaccessible at phase 1",
           end->done && end->status.IsAborted() ? "aborted" : "?!");
  }
  // Partition during phase 2: home commit completes; remote locks held.
  {
    DistRig rig = MakeDistRig(73, 2);
    auto* begin = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    rig.sim->Run();
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    rig.client->set_current_transid(transid->Pack());
    rig.fs->Insert("f2", Slice("k"), Slice("v"),
                   [](const Status&, const Bytes&) {});
    rig.client->set_current_transid(0);
    rig.sim->Run();
    auto* end = rig.client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                    tmf::EncodeTransidPayload(*transid),
                                    transid->Pack());
    // Cut the link exactly at the commit record.
    auto* mat = &rig.deploy->GetNode(1)->storage().monitor_trail;
    for (int i = 0; i < 2000 && mat->Lookup(*transid) != 1; ++i) {
      rig.sim->RunFor(Micros(500));
    }
    rig.deploy->cluster().CutLink(1, 2);
    rig.sim->RunFor(Seconds(2));
    bool home_done = end->done && end->status.ok();
    size_t remote_locks =
        rig.deploy->GetNode(2)->disc("$DATA2")->locks().held_count();
    printf("%-52s %10s\n", "partition during phase 2: home END completes",
           home_done ? "yes" : "NO");
    printf("%-52s %10zu\n", "  remote locks held while inaccessible",
           remote_locks);
    rig.deploy->cluster().RestoreLink(1, 2);
    rig.sim->RunFor(Seconds(5));
    printf("%-52s %10zu\n", "  remote locks after heal (safe delivery)",
           rig.deploy->GetNode(2)->disc("$DATA2")->locks().held_count());
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e3_distributed_commit");
  encompass::bench::ReportMeta(/*seed=*/61);
  printf("E3: the distributed two-phase commit protocol\n");
  encompass::bench::TableCommitCostVsParticipants();
  encompass::bench::TableBroadcastAblation();
  encompass::bench::TableAbortPaths();
  encompass::bench::WriteReport();
  return 0;
}
