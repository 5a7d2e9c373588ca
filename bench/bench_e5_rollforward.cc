// E5 — ROLLFORWARD. "NonStop systems allow optimization of normal
// processing at the expense of restart time." Measures total-node-failure
// recovery: redo volume vs audit accumulated since the archive, correctness
// of the rebuilt data base, and the negotiation path for transactions in
// "ending" state at failure time.

#include "bench_util.h"
#include "test_util.h"
#include "tmf/rollforward.h"

namespace encompass::bench {
namespace {

/// Runs `txns` committed transfers on a fresh rig, crashes the node, rolls
/// forward from the pre-workload archive, and reports the work done.
struct RollforwardRun {
  size_t redo_applied = 0;
  size_t txns_committed = 0;
  bool correct = false;
  double est_recovery_s = 0;  // records * 1ms redo-io estimate
  double trail_bytes_per_record = 0;  // retained audit heap per record
};

RollforwardRun RunOne(int txns) {
  BankRig rig = MakeBankRig(/*seed=*/91, 4, 50, 0, 0);
  auto* trail = rig.node->storage().trails.at("$DATA1.AT").get();
  rig.volume->Flush();
  Bytes archive = rig.volume->Archive();
  uint64_t archive_lsn = trail->durable_lsn();

  app::TcpConfig cfg;
  cfg.programs = {{"transfer", rig.program.get()}};
  auto tcp = os::SpawnPair<app::Tcp>(rig.node->node(), "$TCPW", 2, 3, cfg);
  rig.sim->Run();
  tcp.primary->AttachTerminal("t", "transfer", txns);
  rig.sim->Run();

  rig.deploy->CrashNode(1);
  rig.sim->RunFor(Millis(100));
  rig.deploy->RestartNode(1);
  rig.sim->RunFor(Millis(100));

  tmf::RollforwardInput input;
  input.volume = rig.volume;
  input.archive = &archive;
  input.trail = trail;
  input.archive_lsn = archive_lsn;
  input.monitor_trail = &rig.node->storage().monitor_trail;
  auto report = tmf::Rollforward(input);

  RollforwardRun out;
  if (report.ok()) {
    out.redo_applied = report->redo_applied;
    out.txns_committed = report->txns_committed;
    out.correct = apps::banking::SumBalances(rig.volume, "acct") == 50 * 1000;
    out.est_recovery_s = static_cast<double>(report->redo_applied) * 1e-3;
  }
  if (trail->record_count() > 0) {
    out.trail_bytes_per_record = static_cast<double>(trail->bytes()) /
                                 static_cast<double>(trail->record_count());
  }
  return out;
}

void TableRecoveryVsAuditVolume() {
  Header("E5.a rollforward work vs transactions since the archive");
  printf("%12s %14s %14s %16s %10s\n", "txns", "redo images", "txns replayed",
         "est recovery(s)", "correct");
  for (int txns : {10, 50, 200, 1000}) {
    RollforwardRun run = RunOne(txns);
    printf("%12d %14zu %14zu %16.2f %10s\n", txns, run.redo_applied,
           run.txns_committed, run.est_recovery_s, run.correct ? "yes" : "NO");
    const std::string key = "e5.a.txns" + std::to_string(txns);
    ReportValue(key + ".redo_applied", static_cast<double>(run.redo_applied));
    ReportValue(key + ".txns_committed", static_cast<double>(run.txns_committed));
    ReportValue(key + ".correct", run.correct ? 1 : 0);
    ReportValue(key + ".trail_bytes_per_record", run.trail_bytes_per_record);
  }
  printf("(recovery work is proportional to audit since the archive —\n"
         " the price of never forcing data pages during normal processing)\n");
}

void TableNegotiation() {
  Header("E5.b negotiation for transactions in 'ending' state at failure");
  // Distributed txn: node 2 answers phase 1 (audit forced), home commits,
  // node 2 dies before phase 2 — its MAT has no record; rollforward asks
  // the home node.
  sim::Simulation sim(93);
  app::Deployment deploy(&sim);
  for (net::NodeId id : {1, 2}) {
    app::NodeSpec spec;
    spec.id = id;
    spec.node_config.num_cpus = 4;
    spec.volumes = {app::VolumeSpec{"$DATA" + std::to_string(id),
                                    {app::FileSpec{"f" + std::to_string(id)}},
                                    {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  deploy.DefineFile("f2", 2, "$DATA2");
  auto* client = deploy.GetNode(1)->node()->Spawn<testutil::TestClient>(2);
  tmf::FileSystem fs(client, &deploy.catalog());
  sim.Run();

  auto* vol2 = deploy.GetNode(2)->storage().volumes.at("$DATA2").get();
  Bytes archive = vol2->Archive();

  auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
  sim.Run();
  auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
  client->set_current_transid(transid->Pack());
  fs.Insert("f2", Slice("key"), Slice("value"), [](const Status&, const Bytes&) {});
  client->set_current_transid(0);
  sim.Run();
  client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                  tmf::EncodeTransidPayload(*transid), transid->Pack());
  auto* mat1 = &deploy.GetNode(1)->storage().monitor_trail;
  for (int i = 0; i < 2000 && mat1->Lookup(*transid) != 1; ++i) {
    sim.RunFor(Micros(500));
  }
  deploy.CrashNode(2);  // dies in "ending" state, before phase 2
  sim.RunFor(Millis(100));
  // ROLLFORWARD runs before node 2 resumes service. Once restarted, the
  // home's phase-2 retry would deliver the commit record to node 2's MAT,
  // and there would be nothing left to negotiate.

  size_t negotiated = 0;
  tmf::RollforwardInput input;
  input.volume = vol2;
  input.archive = &archive;
  input.trail = deploy.GetNode(2)->storage().trails.at("$DATA2.AT").get();
  input.archive_lsn = 0;
  input.monitor_trail = &deploy.GetNode(2)->storage().monitor_trail;
  input.resolve_remote = [&](const Transid& t) {
    ++negotiated;
    return mat1->Lookup(t) == 1 ? tmf::Disposition::kCommitted
                                : tmf::Disposition::kAborted;
  };
  auto report = tmf::Rollforward(input);
  bool recovered =
      report.ok() && vol2->ReadRecord("f2", Slice("key")).status.ok();
  printf("transaction in 'ending' at node 2 when it failed:\n");
  printf("  local disposition unknown -> negotiated with home : %zu query\n",
         negotiated);
  printf("  committed work recovered                          : %s\n",
         recovered ? "yes" : "NO");
  ReportValue("e5.b.negotiated", static_cast<double>(negotiated));
  ReportValue("e5.b.recovered", recovered ? 1 : 0);
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e5_rollforward");
  encompass::bench::ReportMeta(/*seed=*/91);
  printf("E5: ROLLFORWARD — recovery from total node failure\n");
  encompass::bench::TableRecoveryVsAuditVolume();
  encompass::bench::TableNegotiation();
  encompass::bench::WriteReport();
  return 0;
}
