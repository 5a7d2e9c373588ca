// E5 — ROLLFORWARD. "NonStop systems allow optimization of normal
// processing at the expense of restart time." Measures total-node-failure
// recovery: redo volume vs audit accumulated since the archive, correctness
// of the rebuilt data base, the negotiation path for transactions in
// "ending" state at failure time, and a rebuild across an audit trail the
// AUDITPROCESS has purged.

#include <map>
#include <string>
#include <vector>

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
  rig.node->ArchiveVolumes();

  app::TcpConfig cfg;
  cfg.programs = {{"transfer", rig.program.get()}};
  auto tcp = os::SpawnPair<app::Tcp>(rig.node->node(), "$TCPW", 2, 3, cfg);
  rig.sim->Run();
  tcp.primary->AttachTerminal("t", "transfer", txns);
  rig.sim->Run();

  rig.deploy->CrashNode(1);
  rig.sim->RunFor(Millis(100));
  std::vector<tmf::RollforwardReport> reports;
  rig.deploy->RecoverNode(
      1, [&reports](const std::vector<tmf::RollforwardReport>& r) {
        reports = r;
      });
  rig.sim->RunFor(Millis(100));

  RollforwardRun out;
  if (reports.size() == 1) {
    out.redo_applied = reports[0].redo_applied;
    out.txns_committed = reports[0].txns_committed;
    out.correct = apps::banking::SumBalances(rig.volume, "acct") == 50 * 1000;
    out.est_recovery_s = static_cast<double>(reports[0].redo_applied) * 1e-3;
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
  // node 2 dies before phase 2 — its MAT has no record; ROLLFORWARD asks
  // the home's TMP over the network (kTmfResolveTxn).
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
  deploy.GetNode(2)->ArchiveVolumes();

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
  // ROLLFORWARD runs before node 2 resumes service, so the home's phase-2
  // retry finds no $TMP there and the disposition must be negotiated.
  std::vector<tmf::RollforwardReport> reports;
  deploy.RecoverNode(2, [&reports](const std::vector<tmf::RollforwardReport>& r) {
    reports = r;
  });
  sim.RunFor(Seconds(5));

  const size_t negotiated = reports.size() == 1 ? reports[0].negotiated : 0;
  const int64_t served = sim.GetStats().Counter("tmf.resolves_served");
  bool recovered =
      reports.size() == 1 && vol2->ReadRecord("f2", Slice("key")).status.ok();
  printf("transaction in 'ending' at node 2 when it failed:\n");
  printf("  local disposition unknown -> negotiated with home : %zu query\n",
         negotiated);
  printf("  resolve queries the home TMP served               : %lld\n",
         static_cast<long long>(served));
  printf("  committed work recovered                          : %s\n",
         recovered ? "yes" : "NO");
  ReportValue("e5.b.negotiated", static_cast<double>(negotiated));
  ReportValue("e5.b.resolves_served", static_cast<double>(served));
  ReportValue("e5.b.recovered", recovered ? 1 : 0);
}

/// Balance of every account, by key.
std::map<std::string, std::string> Accounts(storage::Volume* volume) {
  std::map<std::string, std::string> out;
  volume->Find("acct")->ForEach([&out](const Slice& key, const Slice& value) {
    out[key.ToString()] = value.ToString();
  });
  return out;
}

void TablePurgeAcrossArchive() {
  Header("E5.c audit purge across an archive, then crash and ROLLFORWARD");
  // Transfers fill more than three audit files, the volume is archived,
  // about one more file's worth follows, and the node fails. The
  // AUDITPROCESS purges finished files at each seal; past the archive it
  // keeps every record ROLLFORWARD replays, so RecoverNode rebuilds the
  // committed state.
  constexpr int kAccounts = 1000;
  constexpr uint64_t kBeforeArchive = 3600;  // per terminal, 2 terminals
  constexpr uint64_t kAfterArchive = 1200;
  BankRig rig = MakeBankRig(/*seed=*/95, 4, kAccounts, 0, 0);
  auto* trail = rig.node->storage().trails.at("$DATA1.AT").get();
  auto transfers = [&rig](const std::string& tag, uint64_t each) {
    for (const char* t : {"a", "b"}) {
      rig.Primary()->AttachTerminal(tag + t, "transfer", each);
    }
    rig.sim->Run();
  };
  transfers("before", kBeforeArchive);
  rig.node->ArchiveVolumes();
  transfers("after", kAfterArchive);
  const uint64_t appended = trail->next_lsn() - 1;
  const std::map<std::string, std::string> committed = Accounts(rig.volume);

  rig.deploy->CrashNode(1);
  rig.sim->RunFor(Millis(100));
  bool recovered = false;
  rig.deploy->RecoverNode(
      1, [&recovered](const std::vector<tmf::RollforwardReport>& reports) {
        recovered = reports.size() == 1;
      });
  rig.sim->RunFor(Seconds(5));

  const size_t retained = trail->record_count();
  const int64_t purged = rig.sim->GetStats().Counter("audit.files_purged");
  const bool correct =
      recovered && Accounts(rig.volume) == committed &&
      apps::banking::SumBalances(rig.volume, "acct") == kAccounts * 1000;
  printf("%16s %16s %14s %10s\n", "records written", "records retained",
         "files purged", "correct");
  printf("%16llu %16zu %14lld %10s\n", static_cast<unsigned long long>(appended),
         retained, static_cast<long long>(purged), correct ? "yes" : "NO");
  printf("(the trail keeps what live transactions and ROLLFORWARD can still\n"
         " read, not the whole run)\n");
  ReportValue("e5.c.records_written", static_cast<double>(appended));
  ReportValue("e5.c.retained_records", static_cast<double>(retained));
  ReportValue("e5.c.files_purged", static_cast<double>(purged));
  ReportValue("e5.c.correct", correct ? 1 : 0);
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e5_rollforward");
  encompass::bench::ReportMeta(/*seed=*/91);
  printf("E5: ROLLFORWARD — recovery from total node failure\n");
  encompass::bench::TableRecoveryVsAuditVolume();
  encompass::bench::TableNegotiation();
  encompass::bench::TablePurgeAcrossArchive();
  encompass::bench::WriteReport();
  return 0;
}
