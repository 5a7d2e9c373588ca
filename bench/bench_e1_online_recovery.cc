// E1 — "Recovery ... does not require system halt or restart. Transactions
// uninvolved in the failure continue processing." Compares the throughput
// timeline of TMF across a processor failure against a conventional WAL
// system across a crash + halt-and-restart recovery. The shape to expect:
// TMF shows a brief dip (only transactions touching the failed module are
// backed out and restarted); the conventional system shows a total outage
// whose length grows with the log to recover. E1.d fails the CPU of the TCP
// that runs the terminals: its backup restarts their programs.

#include "baseline/wal_engine.h"
#include "bench_util.h"

namespace encompass::bench {
namespace {

void TableTmfTimeline() {
  Header("E1.a TMF: committed transactions per 500ms bucket (CPU fails at 2s)");
  BankRig rig = MakeBankRig(/*seed=*/41, /*cpus=*/4, /*accounts=*/100,
                            /*terminals=*/8, /*iterations=*/UINT64_MAX);
  printf("%10s %14s %10s\n", "t (s)", "commits/bucket", "event");
  uint64_t last = 0, min_commits = UINT64_MAX, max_commits = 0;
  for (int bucket = 0; bucket < 12; ++bucket) {
    if (bucket == 4) {
      rig.node->node()->FailCpu(1);  // DISCPROCESS primary dies
    }
    rig.sim->RunFor(Millis(500));
    uint64_t now_committed = rig.Primary()->transactions_committed();
    printf("%10.1f %14llu %10s\n",
           static_cast<double>(rig.sim->Now()) / 1e6,
           (unsigned long long)(now_committed - last),
           bucket == 4 ? "CPU FAIL" : "");
    min_commits = std::min(min_commits, now_committed - last);
    max_commits = std::max(max_commits, now_committed - last);
    last = now_committed;
  }
  printf("takeovers=%lld restarts=%llu failed=%llu (service never stopped)\n",
         (long long)rig.sim->GetStats().Counter("os.takeovers"),
         (unsigned long long)rig.Primary()->transactions_restarted(),
         (unsigned long long)rig.Primary()->programs_failed());
  ReportValue("e1.a.bucket_commits.min", min_commits);
  ReportValue("e1.a.bucket_commits.max", max_commits);
  ReportValue("e1.a.takeovers", rig.sim->GetStats().Counter("os.takeovers"));
  ReportValue("e1.a.restarts", rig.Primary()->transactions_restarted());
  ReportValue("e1.a.programs_failed", rig.Primary()->programs_failed());
}

void TableTcpTakeover() {
  Header("E1.d TMF: committed transactions per 500ms bucket (TCP CPU fails at 2s)");
  // The same rig as E1.a, but the failed CPU (cpus - 2) holds $TCP1's
  // primary. The backup takes over and restarts each terminal's program at
  // its BEGIN-TRANSACTION with the checkpointed input; the terminal user
  // enters nothing again. The CPU is reloaded at 3s and a new backup is
  // attached at 3.5s, which resynchronizes it (OnBackupAttached).
  BankRig rig = MakeBankRig(/*seed=*/41, /*cpus=*/4, /*accounts=*/100,
                            /*terminals=*/8, /*iterations=*/UINT64_MAX);
  const int tcp_cpu = rig.Primary()->cpu();
  printf("%10s %14s %14s\n", "t (s)", "commits/bucket", "event");
  uint64_t last = 0, min_commits = UINT64_MAX;
  for (int bucket = 0; bucket < 12; ++bucket) {
    const char* event = "";
    if (bucket == 4) {
      rig.node->node()->FailCpu(tcp_cpu);  // the primary vanishes with it
      event = "TCP CPU FAIL";
    } else if (bucket == 6) {
      rig.node->node()->ReloadCpu(tcp_cpu);
      event = "CPU RELOAD";
    } else if (bucket == 7) {
      os::AttachBackup<app::Tcp>(rig.node->node(), rig.Primary(), tcp_cpu,
                                 rig.tcp_config);
      event = "NEW BACKUP";
    }
    rig.sim->RunFor(Millis(500));
    const uint64_t now_committed = rig.Primary()->transactions_committed();
    printf("%10.1f %14llu %14s\n", static_cast<double>(rig.sim->Now()) / 1e6,
           (unsigned long long)(now_committed - last), event);
    min_commits = std::min(min_commits, now_committed - last);
    last = now_committed;
  }
  const int64_t restarts =
      rig.sim->GetStats().Counter("tcp.takeover_restarts");
  printf("terminal restarts after takeover=%lld failed=%llu\n",
         (long long)restarts,
         (unsigned long long)rig.Primary()->programs_failed());
  ReportValue("e1.d.bucket_commits.min", min_commits);
  ReportValue("e1.d.tcp_takeover_restarts", restarts);
  ReportValue("e1.d.programs_failed", rig.Primary()->programs_failed());
}

void TableBaselineTimeline() {
  Header("E1.b conventional WAL: crash at 2s halts everything until restart");
  baseline::WalEngine engine;
  Random rng(41);
  printf("%10s %14s %10s\n", "t (s)", "commits/bucket", "event");
  SimTime now = 0;
  SimTime crash_at = Seconds(2);
  bool crashed = false;
  SimTime recovered_at = 0;
  uint64_t empty_buckets = 0, max_commits = 0;
  for (int bucket = 0; bucket < 12; ++bucket) {
    SimTime bucket_end = (bucket + 1) * Millis(500);
    uint64_t commits = 0;
    const char* event = "";
    while (now < bucket_end) {
      if (!crashed && now >= crash_at) {
        // Crash: all in-flight transactions die; the system halts.
        engine.Crash();
        SimDuration outage = engine.Restart();
        crashed = true;
        recovered_at = now + outage;
        event = "CRASH+RESTART";
      }
      if (crashed && now < recovered_at) {
        now = recovered_at;  // total outage: no work at all
        continue;
      }
      // One transaction: two updates + commit.
      SimDuration cost = 0;
      baseline::TxnId t = engine.Begin();
      engine.Update(t, "k" + std::to_string(rng.Uniform(100)), "v", &cost);
      engine.Update(t, "k" + std::to_string(rng.Uniform(100)), "v", &cost);
      engine.Commit(t, &cost);
      now += cost + Micros(500);
      if (now <= bucket_end) ++commits;
    }
    printf("%10.1f %14llu %10s\n", static_cast<double>(bucket_end) / 1e6,
           (unsigned long long)commits, event);
    empty_buckets += commits == 0;
    max_commits = std::max(max_commits, commits);
  }
  ReportValue("e1.b.empty_buckets", empty_buckets);
  ReportValue("e1.b.bucket_commits.max", max_commits);
}

void TableOutageVsLog() {
  Header("E1.c conventional restart outage grows with log since checkpoint");
  printf("%16s %18s\n", "txns since ckpt", "restart outage (s)");
  for (int txns : {100, 1000, 5000, 20000}) {
    baseline::WalEngine engine;
    SimDuration cost = 0;
    for (int i = 0; i < txns; ++i) {
      baseline::TxnId t = engine.Begin();
      engine.Update(t, "k" + std::to_string(i % 500), "v", &cost);
      engine.Commit(t, &cost);
    }
    engine.Crash();
    SimDuration outage = engine.Restart();
    printf("%16d %18.3f\n", txns, static_cast<double>(outage) / 1e6);
    ReportValue("e1.c.outage_s.txns" + std::to_string(txns), outage / 1e6);
  }
  printf("(TMF's equivalent number is ~0: no restart pass exists; only the\n"
         " transactions on the failed module are backed out, online)\n");
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e1_online_recovery");
  encompass::bench::ReportMeta(/*seed=*/41);
  printf("E1: online recovery (TMF) vs halt-and-restart (conventional)\n");
  encompass::bench::TableTmfTimeline();
  encompass::bench::TableBaselineTimeline();
  encompass::bench::TableOutageVsLog();
  encompass::bench::TableTcpTakeover();
  encompass::bench::WriteReport();
  return 0;
}
