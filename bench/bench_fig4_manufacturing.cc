// F4 — Figure 4 (the manufacturing network). Reproduces the behaviour of
// the four-site replicated data base: local/global transaction mix, the
// suspense-file depth timeline across a partition, and post-heal
// convergence time as a function of the accumulated deferred updates.

#include "apps/manufacturing/manufacturing.h"
#include "bench_util.h"
#include "test_util.h"
#include "tmf/file_system.h"

namespace encompass::bench {
namespace {

using namespace encompass::apps::manufacturing;
using testutil::TestClient;

const std::vector<net::NodeId> kNodes = {1, 2, 3, 4};

struct MfgRig {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<app::Deployment> deploy;
  std::map<net::NodeId, SuspenseMonitor*> monitors;
  std::map<net::NodeId, TestClient*> clients;
};

MfgRig MakeMfgRig(uint64_t seed) {
  MfgRig rig;
  rig.sim = std::make_unique<sim::Simulation>(seed);
  rig.deploy = std::make_unique<app::Deployment>(rig.sim.get());
  for (net::NodeId n : kNodes) {
    app::NodeSpec spec;
    spec.id = n;
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{MfgVolume(n), {}, {}}};
    rig.deploy->AddNode(spec);
  }
  rig.deploy->LinkAll();
  DeployManufacturing(rig.deploy.get(), kNodes);
  for (net::NodeId n : kNodes) {
    AddMfgServerClass(rig.deploy.get(), n, kNodes);
    rig.monitors[n] = AddSuspenseMonitor(rig.deploy.get(), n, kNodes);
    rig.clients[n] = rig.deploy->GetNode(n)->node()->Spawn<TestClient>(2);
  }
  rig.sim->RunFor(Millis(10));
  return rig;
}

Status RunGlobalUpdate(MfgRig& rig, net::NodeId via, const std::string& file,
                       const std::string& key, const std::string& val) {
  TestClient* client = rig.clients[via];
  auto* begin = client->CallRaw(net::Address(via, "$TMP"), tmf::kTmfBegin, {});
  rig.sim->RunFor(Millis(5));
  if (!begin->done || !begin->status.ok()) return Status::Unavailable();
  auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
  storage::Record req;
  req.Set("op", "gupdate").Set("file", file).Set("key", key).Set("val", val);
  auto* send = client->CallRaw(net::Address(via, GlobalServerClass()),
                               app::kServerRequest, req.Encode(),
                               transid->Pack());
  rig.sim->RunFor(Seconds(2));
  if (!send->done || !send->status.ok()) {
    client->CallRaw(net::Address(via, "$TMP"), tmf::kTmfAbort,
                    tmf::EncodeTransidPayload(*transid), transid->Pack());
    rig.sim->RunFor(Seconds(1));
    return send->done ? send->status : Status::Timeout();
  }
  auto* end = client->CallRaw(net::Address(via, "$TMP"), tmf::kTmfEnd,
                              tmf::EncodeTransidPayload(*transid),
                              transid->Pack());
  rig.sim->RunFor(Seconds(1));
  return end->done ? end->status : Status::Timeout();
}

void TableSuspenseTimeline() {
  Header("F4.a suspense-file depth across a partition (master=node 1)");
  MfgRig rig = MakeMfgRig(21);
  SeedGlobalRecord(rig.deploy.get(), kNodes, "item-master", "X", "v0", 1);
  printf("%10s %18s %14s %16s\n", "t (s)", "event", "suspense@1",
         "node4 copy");
  auto row = [&](const char* event) {
    auto v = CopyValue(rig.deploy.get(), 4, "item-master", "X");
    printf("%10.1f %18s %14zu %16s\n",
           static_cast<double>(rig.sim->Now()) / 1e6, event,
           SuspenseDepth(rig.deploy.get(), 1), v ? v->c_str() : "?");
  };
  row("start");
  rig.deploy->cluster().IsolateNode(4);
  rig.sim->RunFor(Millis(100));
  row("node4 isolated");
  for (int i = 1; i <= 6; ++i) {
    RunGlobalUpdate(rig, 1, "item-master", "X", "v" + std::to_string(i));
    if (i % 2 == 0) row(("after update v" + std::to_string(i)).c_str());
  }
  rig.sim->RunFor(Seconds(2));
  row("still partitioned");
  rig.deploy->cluster().ReconnectNode(4);
  SimTime heal_at = rig.sim->Now();
  // Poll until converged.
  while (!Converged(rig.deploy.get(), kNodes, "item-master", "X") &&
         rig.sim->Now() - heal_at < Seconds(60)) {
    rig.sim->RunFor(Millis(250));
  }
  row("reconnected+drained");
  printf("convergence after heal: %.2f s (6 deferred updates, in order)\n",
         static_cast<double>(rig.sim->Now() - heal_at) / 1e6);
}

void TableConvergenceVsBacklog() {
  Header("F4.b convergence time vs accumulated deferred updates");
  printf("%10s %16s %14s\n", "updates", "converged", "heal->conv (s)");
  for (int updates : {2, 4, 8, 16}) {
    MfgRig rig = MakeMfgRig(23);
    SeedGlobalRecord(rig.deploy.get(), kNodes, "bom", "B", "v0", 1);
    rig.deploy->cluster().IsolateNode(4);
    rig.sim->RunFor(Millis(100));
    for (int i = 1; i <= updates; ++i) {
      RunGlobalUpdate(rig, 1, "bom", "B", "v" + std::to_string(i));
    }
    rig.sim->RunFor(Seconds(2));
    rig.deploy->cluster().ReconnectNode(4);
    SimTime heal_at = rig.sim->Now();
    while (!Converged(rig.deploy.get(), kNodes, "bom", "B") &&
           rig.sim->Now() - heal_at < Seconds(120)) {
      rig.sim->RunFor(Millis(250));
    }
    bool converged = Converged(rig.deploy.get(), kNodes, "bom", "B");
    const double converge_s =
        static_cast<double>(rig.sim->Now() - heal_at) / 1e6;
    printf("%10d %16s %14.2f\n", updates, converged ? "yes" : "NO",
           converge_s);
    const std::string key = "f4.b.updates" + std::to_string(updates);
    ReportValue(key + ".converge_s", converge_s);
    ReportValue(key + ".converged", converged ? 1 : 0);
  }
}

void TableMasterAvailability() {
  Header("F4.c node autonomy: master availability governs global updates");
  MfgRig rig = MakeMfgRig(29);
  SeedGlobalRecord(rig.deploy.get(), kNodes, "po-header", "P", "open", 1);
  printf("%-44s %10s\n", "operation", "result");
  Status s1 = RunGlobalUpdate(rig, 3, "po-header", "P", "approved");
  printf("%-44s %10s\n", "update via node 3 (master node 1 reachable)",
         s1.ok() ? "ok" : s1.ToString().c_str());
  rig.deploy->cluster().IsolateNode(1);
  rig.sim->RunFor(Millis(100));
  Status s2 = RunGlobalUpdate(rig, 3, "po-header", "P", "cancelled");
  printf("%-44s %10s\n", "update via node 3 (master isolated)",
         s2.ok() ? "ok (WRONG)" : "rejected");
  // Local reads still work everywhere (reads go to the local copy).
  auto v = CopyValue(rig.deploy.get(), 3, "po-header", "P");
  printf("%-44s %10s\n", "local read at node 3 during the partition",
         v ? v->c_str() : "?");
}

void TableReplicationAblation() {
  Header("F4.d ablation: suspense files vs synchronous replica update");
  // The paper: "this simple approach [update all copies in one TMF
  // transaction] fails to address the goal of node autonomy, since no node
  // can run a global update transaction at a time when any other node is
  // unavailable." Reproduce both designs with node 4 isolated.
  printf("%-46s %10s\n", "design / scenario (node 4 isolated)", "update");

  // (a) The paper's design: master-node + suspense file.
  {
    MfgRig rig = MakeMfgRig(37);
    SeedGlobalRecord(rig.deploy.get(), kNodes, "item-master", "A", "v0", 1);
    rig.deploy->cluster().IsolateNode(4);
    rig.sim->RunFor(Millis(100));
    Status s = RunGlobalUpdate(rig, 1, "item-master", "A", "v1");
    printf("%-46s %10s\n", "suspense design, master reachable",
           s.ok() ? "ok" : "REJECTED");
  }

  // (b) Synchronous replication: one TMF transaction updates all copies.
  {
    MfgRig rig = MakeMfgRig(39);
    SeedGlobalRecord(rig.deploy.get(), kNodes, "item-master", "A", "v0", 1);
    rig.deploy->cluster().IsolateNode(4);
    rig.sim->RunFor(Millis(100));

    TestClient* client = rig.clients[1];
    tmf::FileSystem fs(client, &rig.deploy->catalog());
    auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    rig.sim->RunFor(Millis(5));
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    bool any_failed = false;
    for (net::NodeId n : kNodes) {
      bool done = false;
      Status status;
      client->set_current_transid(transid->Pack());
      storage::Record updated;
      updated.Set("val", "v1").Set("master", "1");
      fs.Update(CopyName("item-master", n), Slice("A"),
                Slice(updated.Encode()),
                [&done, &status](const Status& s, const Bytes&) {
                  done = true;
                  status = s;
                });
      client->set_current_transid(0);
      rig.sim->RunFor(Seconds(2));
      if (!done || !status.ok()) any_failed = true;
    }
    Status end_status = Status::Aborted();
    if (!any_failed) {
      auto* end = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                                  tmf::EncodeTransidPayload(*transid),
                                  transid->Pack());
      rig.sim->RunFor(Seconds(5));
      if (end->done) end_status = end->status;
    } else {
      client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfAbort,
                      tmf::EncodeTransidPayload(*transid), transid->Pack());
      rig.sim->RunFor(Seconds(2));
    }
    printf("%-46s %10s\n", "synchronous design, all-copies transaction",
           end_status.ok() ? "ok (WRONG)" : "REJECTED");
    printf("(the suspense design trades momentary replica divergence for\n"
           " node autonomy — the paper's stated compromise)\n");
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("fig4_manufacturing");
  encompass::bench::ReportMeta(/*seed=*/21);
  printf("F4: Figure 4 — the four-site manufacturing data base\n");
  encompass::bench::TableSuspenseTimeline();
  encompass::bench::TableConvergenceVsBacklog();
  encompass::bench::TableMasterAvailability();
  encompass::bench::TableReplicationAblation();
  encompass::bench::WriteReport();
  return 0;
}
