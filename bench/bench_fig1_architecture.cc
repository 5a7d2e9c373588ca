// F1 — Figure 1 (the NonStop hardware architecture). Validates and measures
// the redundancy properties the architecture section claims: at least two
// paths between any two components, so no single-module failure stops
// service. Tables: message-path latencies; service continuity across each
// single-module failure class; mirrored-disc failover/revive.

#include "bench_util.h"
#include "net/network.h"
#include "os/cluster.h"
#include "os/process.h"
#include "test_util.h"

namespace encompass::bench {
namespace {

using testutil::TestClient;

constexpr uint32_t kEcho = net::kTagApp + 1;

class Echo : public os::Process {
 public:
  void OnMessage(const net::Message& msg) override {
    Reply(msg, Status::Ok(), msg.payload);
  }
};

SimDuration MeasureRoundTrip(sim::Simulation* sim, TestClient* client,
                             const net::Address& dst) {
  SimTime start = sim->Now();
  auto* o = client->CallRaw(dst, kEcho, ToBytes("ping"));
  sim->Run();
  return o->done && o->status.ok() ? sim->Now() - start : -1;
}

void TableMessagePaths() {
  Header("F1.a message round-trip latency by path (simulated)");
  sim::Simulation sim(1);
  os::Cluster cluster(&sim);
  os::Node* n1 = cluster.AddNode(1);
  os::Node* n2 = cluster.AddNode(2);
  os::Node* n3 = cluster.AddNode(3);
  cluster.Link(1, 2);
  cluster.Link(2, 3);  // node 3 reachable from 1 only via 2

  auto* same_cpu = n1->Spawn<Echo>(0);
  auto* cross_cpu = n1->Spawn<Echo>(1);
  auto* remote1 = n2->Spawn<Echo>(0);
  auto* remote2 = n3->Spawn<Echo>(0);
  auto* client = n1->Spawn<TestClient>(0);
  sim.Run();

  struct Path {
    const char* name;
    const char* key;
    os::Process* echo;
  };
  const Path paths[] = {
      {"same CPU", "same_cpu", same_cpu},
      {"cross CPU (IPC bus)", "cross_cpu", cross_cpu},
      {"cross node, 1 hop", "one_hop", remote1},
      {"cross node, 2 hops", "two_hops", remote2},
  };
  printf("%-28s %12s\n", "path", "rtt (us)");
  for (const auto& p : paths) {
    SimDuration rtt = MeasureRoundTrip(&sim, client, net::Address(p.echo->id()));
    printf("%-28s %12lld\n", p.name, (long long)rtt);
    ReportValue(std::string("f1.rtt_us.") + p.key, static_cast<double>(rtt));
  }
}

void TableSingleModuleFailures() {
  Header("F1.b single-module failures: service continues (NonStop)");
  printf("%-34s %10s %10s %10s\n", "injected failure", "committed", "failed",
         "conserved");
  struct Case {
    const char* name;
    const char* key;
    std::function<void(BankRig&)> inject;
  };
  const Case cases[] = {
      {"none (control)", "control", [](BankRig&) {}},
      {"one CPU (disc primary)", "disc_primary_cpu",
       [](BankRig& rig) { rig.node->node()->FailCpu(1); }},
      {"one CPU (TMP primary)", "tmp_primary_cpu",
       [](BankRig& rig) { rig.node->node()->FailCpu(3); }},
      {"IPC bus X", "bus_x",
       [](BankRig& rig) { rig.node->node()->SetBusUp(0, false); }},
      {"one mirrored disc drive", "disc_drive",
       [](BankRig& rig) { rig.volume->FailDrive(0); }},
  };
  for (const auto& c : cases) {
    BankRig rig = MakeBankRig(/*seed=*/7, /*cpus=*/4, /*accounts=*/50,
                              /*terminals=*/4, /*iterations=*/25);
    rig.sim->RunFor(Millis(50));
    c.inject(rig);
    rig.sim->RunFor(Seconds(300));
    rig.sim->Run();
    long long sum = apps::banking::SumBalances(rig.volume, "acct");
    const uint64_t committed = rig.Primary()->transactions_committed();
    const uint64_t failed = rig.Primary()->programs_failed();
    printf("%-34s %10llu %10llu %10s\n", c.name, (unsigned long long)committed,
           (unsigned long long)failed, sum == 50 * 1000 ? "yes" : "NO");
    const std::string key = std::string("f1.failure.") + c.key;
    ReportValue(key + ".committed", static_cast<double>(committed));
    ReportValue(key + ".failed", static_cast<double>(failed));
  }
}

void TableMirrorFailoverRevive() {
  Header("F1.c mirrored disc: failover and revive");
  storage::Volume vol("$DATA1");
  vol.CreateFile("f", storage::FileOrganization::kKeySequenced);
  for (int i = 0; i < 5000; ++i) {
    vol.Mutate("f", storage::MutationOp::kInsert,
               Slice("key" + std::to_string(i)), Slice("value"));
  }
  vol.Flush();
  printf("drives up: %d, usable: %s\n", vol.UpDrives(),
         vol.Usable() ? "yes" : "no");
  vol.FailDrive(0);
  auto r = vol.Mutate("f", storage::MutationOp::kUpdate, Slice("key1"),
                      Slice("v2"));
  printf("after drive-0 failure: usable=%s write=%s (single drive carries on)\n",
         vol.Usable() ? "yes" : "no", r.status.ok() ? "ok" : "failed");
  auto copied = vol.ReviveDrive(0);
  const size_t revived = copied.ok() ? *copied : 0;
  printf("revive drive 0: copied %zu records back to the stale mirror\n",
         revived);
  ReportValue("f1.mirror.revive_copied", static_cast<double>(revived));
  vol.FailDrive(0);
  vol.FailDrive(1);
  auto r2 = vol.ReadRecord("f", Slice("key1"));
  printf("both drives down: read=%s (dual failure IS a volume outage)\n",
         r2.status.ToString().c_str());
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("fig1_architecture");
  encompass::bench::ReportMeta(/*seed=*/7);
  printf("F1: Figure 1 — NonStop architecture redundancy\n");
  encompass::bench::TableMessagePaths();
  encompass::bench::TableSingleModuleFailures();
  encompass::bench::TableMirrorFailoverRevive();
  encompass::bench::WriteReport();
  return 0;
}
