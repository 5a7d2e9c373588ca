// F3 — Figure 3 (transaction state transitions). Runs a mixed workload that
// exercises every edge of the state machine (commit, voluntary abort,
// deadlock-timeout restart, failure-induced abort) and prints the observed
// transition census — every edge present, zero illegal transitions — plus
// the latency of each protocol phase.

#include "bench_util.h"
#include "test_util.h"
#include "tmf/file_system.h"
#include "tmf/transaction_state.h"

namespace encompass::bench {
namespace {

void TableTransitionCensus() {
  Header("F3.a state-transition census under a mixed workload");
  // High contention (skewed access to few accounts) to provoke deadlock
  // restarts, plus a voluntary-abort program and a CPU failure.
  BankRig rig = MakeBankRig(/*seed=*/5, /*cpus=*/4, /*accounts=*/6,
                            /*terminals=*/8, /*iterations=*/30, /*skew=*/0.9,
                            /*lock_timeout=*/Millis(100),
                            /*restart_limit=*/500);
  rig.sim->RunFor(Millis(100));
  rig.node->node()->FailCpu(1);  // failure-induced aborts
  rig.sim->RunFor(Seconds(900));
  rig.sim->Run();

  // The ending->aborting edge needs a phase-1 failure: run a distributed
  // transaction whose participant is cut exactly at END-TRANSACTION time.
  sim::Simulation sim2(77);
  {
    app::Deployment deploy(&sim2);
    for (net::NodeId id : {1, 2}) {
      app::NodeSpec spec;
      spec.id = id;
      spec.node_config.num_cpus = 4;
      spec.volumes = {app::VolumeSpec{
          "$D" + std::to_string(id), {app::FileSpec{"f" + std::to_string(id)}},
          {}}};
      deploy.AddNode(spec);
    }
    deploy.LinkAll();
    deploy.DefineFile("f2", 2, "$D2");
    auto* client =
        deploy.GetNode(1)->node()->Spawn<testutil::TestClient>(2);
    tmf::FileSystem fs(client, &deploy.catalog());
    sim2.Run();
    auto* begin = client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfBegin, {});
    sim2.Run();
    auto transid = tmf::DecodeTransidPayload(Slice(begin->payload));
    client->set_current_transid(transid->Pack());
    fs.Insert("f2", Slice("k"), Slice("v"), [](const Status&, const Bytes&) {});
    client->set_current_transid(0);
    sim2.Run();
    client->CallRaw(net::Address(1, "$TMP"), tmf::kTmfEnd,
                    tmf::EncodeTransidPayload(*transid), transid->Pack());
    // Cut the link while phase 1 is in flight: the critical-response
    // message fails and the transaction moves ending -> aborting.
    sim2.RunFor(Millis(1));
    deploy.cluster().CutLink(1, 2);
    sim2.RunFor(Seconds(20));
  }

  auto& stats = rig.sim->GetStats();
  auto& stats2 = sim2.GetStats();
  printf("%-34s %10s\n", "transition (Figure 3 edge)", "count");
  const char* edges[] = {
      "tmf.transition.active->ending",    // END-TRANSACTION (phase one)
      "tmf.transition.ending->ended",     // phase two (commit)
      "tmf.transition.active->aborting",  // failure / abort verb
      "tmf.transition.ending->aborting",  // phase-one failure
      "tmf.transition.aborting->aborted", // backout complete
  };
  for (const char* e : edges) {
    printf("%-34s %10lld\n", e + 15,
           (long long)(stats.Counter(e) + stats2.Counter(e)));
  }
  printf("%-34s %10lld  (must be 0)\n", "ILLEGAL transitions",
         (long long)(stats.Counter("tmf.illegal_transitions") +
                     stats2.Counter("tmf.illegal_transitions")));
  printf("\ncommits=%lld backouts=%lld restarts=%lld broadcasts=%lld\n",
         (long long)stats.Counter("tmf.commits"),
         (long long)stats.Counter("tmf.backouts"),
         (long long)stats.Counter("tcp.txn_restarts"),
         (long long)stats.Counter("tmf.state_broadcasts"));
  long long sum = apps::banking::SumBalances(rig.volume, "acct");
  printf("money conserved: %s ($%lld)\n", sum == 6 * 1000 ? "yes" : "NO", sum);
}

void TableStateMachineExhaustive() {
  Header("F3.b legality matrix (LegalTransition)");
  using tmf::TxnState;
  const TxnState all[] = {TxnState::kActive, TxnState::kEnding, TxnState::kEnded,
                          TxnState::kAborting, TxnState::kAborted};
  printf("%-10s", "from\\to");
  for (TxnState to : all) printf(" %-9s", tmf::TxnStateName(to));
  printf("\n");
  for (TxnState from : all) {
    printf("%-10s", tmf::TxnStateName(from));
    for (TxnState to : all) {
      printf(" %-9s", tmf::LegalTransition(from, to) ? "yes" : ".");
    }
    printf("\n");
  }
}

void TableCommitAbortLatency() {
  Header("F3.c commit vs abort latency (single terminal, no contention)");
  // Commit path.
  {
    BankRig rig = MakeBankRig(/*seed=*/3, 4, 100, 1, 50);
    rig.sim->Run();
    double per_txn = static_cast<double>(rig.sim->Now()) /
                     static_cast<double>(rig.Primary()->transactions_committed());
    printf("%-42s %10.0f us/txn\n", "BEGIN..2 SENDs..END (commit, phase1 force)",
           per_txn);
    ReportValue("f3.c.commit_us_per_txn", per_txn);
  }
  // Abort path: program that always aborts voluntarily.
  {
    BankRig rig = MakeBankRig(/*seed=*/3, 4, 100, 0, 0);
    app::ScreenProgram aborter("aborter");
    aborter.BeginTransaction()
        .Send(1, "$SC.BANK",
              [](const app::Fields&) {
                return apps::banking::BankRequest(
                    "credit", apps::banking::AccountKey(0), 10);
              })
        .AbortTransaction();
    app::TcpConfig cfg;
    cfg.programs = {{"aborter", &aborter}};
    auto tcp = os::SpawnPair<app::Tcp>(rig.node->node(), "$TCPA", 0, 1, cfg);
    rig.sim->Run();
    tcp.primary->AttachTerminal("t", "aborter", 50);
    SimTime start = rig.sim->Now();
    rig.sim->Run();
    double per_txn = static_cast<double>(rig.sim->Now() - start) / 50.0;
    printf("%-42s %10.0f us/txn\n", "BEGIN..SEND..ABORT (backout via images)",
           per_txn);
    ReportValue("f3.c.abort_us_per_txn", per_txn);
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("fig3_states");
  encompass::bench::ReportMeta(/*seed=*/5);
  printf("F3: Figure 3 — transaction state machine\n");
  encompass::bench::TableTransitionCensus();
  encompass::bench::TableStateMachineExhaustive();
  encompass::bench::TableCommitAbortLatency();
  encompass::bench::WriteReport();
  return 0;
}
