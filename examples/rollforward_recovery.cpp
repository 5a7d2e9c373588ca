// ROLLFORWARD after total node failure: archive the data base online, run
// more transactions, then kill every processor of the node at once (the
// multi-module failure NonStop cannot mask). Unforced data is lost with the
// node's memory — but phase-1 of commit forced every committed
// transaction's audit images, so restoring the archive and reapplying
// committed after-images reconstructs the data base exactly. Recovery runs
// before the node's services restart; a transaction left in "ending" state
// would be resolved by negotiating with the other node's TMP.
//
// Build & run:  ./build/examples/rollforward_recovery

#include <cstdio>
#include <vector>

#include "apps/banking/banking.h"
#include "encompass/deployment.h"
#include "encompass/tcp.h"
#include "tmf/rollforward.h"

using namespace encompass;
using namespace encompass::app;
using namespace encompass::apps::banking;

int main() {
  sim::Simulation sim(3);
  Deployment deploy(&sim);
  for (net::NodeId id : {1, 2}) {
    NodeSpec spec;
    spec.id = id;
    spec.node_config.num_cpus = 4;
    spec.volumes = {
        VolumeSpec{"$DATA" + std::to_string(id), {FileSpec{"acct"}}, {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  deploy.DefineFile("acct", 1, "$DATA1");

  NodeDeployment* node1 = deploy.GetNode(1);
  auto* vol = node1->storage().volumes.at("$DATA1").get();
  SeedAccounts(vol, "acct", 20, 1000);
  AddBankServerClass(&deploy, 1, "$SC.BANK", "acct");

  // Archive the audited data base (quiescent point). The archive LSN also
  // bounds what the AUDITPROCESS may purge from the trail.
  node1->ArchiveVolumes();
  const tmf::VolumeArchive& archive = node1->storage().archives.at("$DATA1");
  printf("archived $DATA1 (%zu bytes) at audit LSN %llu\n", archive.image.size(),
         static_cast<unsigned long long>(archive.archive_lsn));

  // Run committed work after the archive.
  ScreenProgram transfer = MakeTransferProgram(1, "$SC.BANK", 20, 100);
  TcpConfig cfg;
  cfg.programs = {{"transfer", &transfer}};
  auto tcp = os::SpawnPair<Tcp>(node1->node(), "$TCP1", 2, 3, cfg);
  sim.Run();
  for (int t = 0; t < 2; ++t) {
    tcp.primary->AttachTerminal("term" + std::to_string(t), "transfer", 15);
  }
  sim.Run();
  long long pre_crash_sum = SumBalances(vol, "acct");
  printf("ran %llu transfers; sum of balances = $%lld\n",
         static_cast<unsigned long long>(tcp.primary->transactions_committed()),
         pre_crash_sum);

  // Total node failure.
  printf("\n[total node failure: all 4 processors of node 1 fail at once]\n");
  deploy.CrashNode(1);
  sim.RunFor(Millis(200));
  printf("unforced volume updates lost: volume reverted to last flush\n");

  // Reload, roll forward, then restart the services.
  std::vector<tmf::RollforwardReport> reports;
  deploy.RecoverNode(1, [&reports](const std::vector<tmf::RollforwardReport>& r) {
    reports = r;
  });
  sim.RunFor(Seconds(1));
  if (reports.size() != 1) {
    printf("rollforward did not complete\n");
    return 1;
  }
  const tmf::RollforwardReport* report = &reports[0];
  printf("\n-- rollforward report -------------------------------------\n");
  printf("after-images considered : %zu\n", report->redo_considered);
  printf("after-images applied    : %zu\n", report->redo_applied);
  printf("transactions replayed   : %zu\n", report->txns_committed);
  printf("transactions discarded  : %zu\n", report->txns_discarded);

  long long post_sum = SumBalances(vol, "acct");
  printf("sum of balances after recovery = $%lld (before crash: $%lld)\n",
         post_sum, pre_crash_sum);
  bool ok = post_sum == 20000 && pre_crash_sum == 20000 &&
            report->redo_applied > 0;
  printf("\n%s\n", ok ? "ROLLFORWARD OK" : "ROLLFORWARD FAILED");
  return ok ? 0 : 1;
}
