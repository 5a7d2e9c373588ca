// E2 — "The implementation of the DISCPROCESS as a process-pair ...
// eliminates the necessity for the protocol termed 'Write Ahead Log' ...
// checkpoint is the functional equivalent of Write Ahead Log. ... audit
// records need not be written to disc prior to updating the data base."
//
// Measures the update-path cost of the three designs:
//   (a) TMF: checkpoint-to-backup per update (bus message), audit forced
//       once per transaction at phase 1;
//   (b) conventional WAL: log forced once at commit;
//   (c) strict write-through WAL: log forced on EVERY update (the cost the
//       checkpoint mechanism avoids).

#include "baseline/wal_engine.h"
#include "bench_util.h"

namespace encompass::bench {
namespace {

void TableUpdatePathCost() {
  Header("E2.a cost per 10-update transaction (simulated time)");
  printf("%-44s %14s %12s\n", "design", "us per txn", "forces/txn");

  // (a) TMF: one terminal issuing 10-update transactions.
  {
    sim::Simulation sim(51);
    app::Deployment deploy(&sim);
    app::NodeSpec spec;
    spec.id = 1;
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{"$DATA1", {app::FileSpec{"acct"}}, {}}};
    auto* node = deploy.AddNode(spec);
    deploy.DefineFile("acct", 1, "$DATA1");
    apps::banking::SeedAccounts(node->storage().volumes.at("$DATA1").get(),
                                "acct", 64, 1000);
    apps::banking::AddBankServerClass(&deploy, 1, "$SC.BANK", "acct");
    app::ScreenProgram prog("ten-credits");
    prog.BeginTransaction();
    for (int i = 0; i < 10; ++i) {
      prog.Send(1, "$SC.BANK", [i](const app::Fields&) {
        return apps::banking::BankRequest("credit",
                                          apps::banking::AccountKey(i), 1);
      });
    }
    prog.EndTransaction();
    app::TcpConfig cfg;
    cfg.programs = {{"p", &prog}};
    auto tcp = os::SpawnPair<app::Tcp>(node->node(), "$TCP1", 2, 3, cfg);
    sim.Run();
    const int kTxns = 100;
    tcp.primary->AttachTerminal("t", "p", kTxns);
    // Per-transaction counts exclude set-up (deployment, seeding, spawn).
    auto per_txn_since = [&sim](const char* counter, int64_t before) {
      return static_cast<double>(sim.GetStats().Counter(counter) - before) /
             kTxns;
    };
    const int64_t forces0 = sim.GetStats().Counter("audit.forces");
    const int64_t checkpoints0 = sim.GetStats().Counter("os.checkpoints_sent");
    SimTime start = sim.Now();
    sim.Run();
    double per_txn = static_cast<double>(sim.Now() - start) / kTxns;
    double forces = per_txn_since("audit.forces", forces0);
    double checkpoints = per_txn_since("os.checkpoints_sent", checkpoints0);
    printf("%-44s %14.0f %12.1f\n",
           "TMF (checkpoint per update, force at phase 1)", per_txn, forces);
    printf("    checkpoints sent per txn: %.1f; audit records unforced on "
           "update: yes\n", checkpoints);
    ReportValue("e2.a.tmf.us_per_txn", per_txn);
    ReportValue("e2.a.tmf.forces_per_txn", forces);
    ReportValue("e2.a.tmf.checkpoints_per_txn", checkpoints);
  }

  // (b) and (c): the WAL engine in its two modes.
  for (bool eager : {false, true}) {
    baseline::WalEngineConfig cfg;
    cfg.force_log_each_update = eager;
    baseline::WalEngine engine(cfg);
    const int kTxns = 100;
    SimDuration total = 0;
    for (int t = 0; t < kTxns; ++t) {
      SimDuration cost = 0;
      baseline::TxnId txn = engine.Begin();
      for (int i = 0; i < 10; ++i) {
        engine.Update(txn, "k" + std::to_string(i), "v", &cost);
      }
      engine.Commit(txn, &cost);
      total += cost;
    }
    const double per_txn = static_cast<double>(total) / kTxns;
    const double forces = static_cast<double>(engine.forces()) / kTxns;
    printf("%-44s %14.0f %12.1f\n",
           eager ? "strict WAL (force each update)"
                 : "conventional WAL (force at commit)",
           per_txn, forces);
    const std::string prefix = eager ? "e2.a.wal_eager" : "e2.a.wal";
    ReportValue(prefix + ".us_per_txn", per_txn);
    ReportValue(prefix + ".forces_per_txn", forces);
  }
}

void TableForceBatching() {
  Header("E2.b audit force batching at phase 1 (force count vs txn size)");
  printf("%14s %16s %18s\n", "updates/txn", "audit records", "forces per txn");
  for (int updates : {1, 5, 20, 50}) {
    sim::Simulation sim(53);
    app::Deployment deploy(&sim);
    app::NodeSpec spec;
    spec.id = 1;
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{"$DATA1", {app::FileSpec{"acct"}}, {}}};
    auto* node = deploy.AddNode(spec);
    deploy.DefineFile("acct", 1, "$DATA1");
    apps::banking::SeedAccounts(node->storage().volumes.at("$DATA1").get(),
                                "acct", 64, 1000);
    apps::banking::AddBankServerClass(&deploy, 1, "$SC.BANK", "acct");
    app::ScreenProgram prog("n-credits");
    prog.BeginTransaction();
    for (int i = 0; i < updates; ++i) {
      prog.Send(1, "$SC.BANK", [i](const app::Fields&) {
        return apps::banking::BankRequest("credit",
                                          apps::banking::AccountKey(i % 64), 1);
      });
    }
    prog.EndTransaction();
    app::TcpConfig cfg;
    cfg.programs = {{"p", &prog}};
    auto tcp = os::SpawnPair<app::Tcp>(node->node(), "$TCP1", 2, 3, cfg);
    sim.Run();
    const int kTxns = 20;
    tcp.primary->AttachTerminal("t", "p", kTxns);
    sim.Run();
    const double forces =
        static_cast<double>(sim.GetStats().Counter("audit.forces")) / kTxns;
    printf("%14d %16lld %18.1f\n", updates,
           (long long)sim.GetStats().Counter("audit.appended"), forces);
    ReportValue("e2.b.updates" + std::to_string(updates) + ".forces_per_txn",
                forces);
  }
  printf("(one force per transaction regardless of size — the WAL-eager\n"
         " design would pay one force per update)\n");
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e2_checkpoint_vs_wal");
  encompass::bench::ReportMeta(/*seed=*/51);
  printf("E2: checkpoint-instead-of-WAL on the update path\n");
  encompass::bench::TableUpdatePathCost();
  encompass::bench::TableForceBatching();
  encompass::bench::WriteReport();
  return 0;
}
