// E4 — decentralized concurrency control. Sweeps contention (access skew /
// hot-record ratio) and the deadlock-detection timeout, reporting
// throughput, lock waits, timeouts, and RESTART-TRANSACTION cycles. The
// shape: throughput degrades and restarts climb as contention concentrates;
// shorter timeouts resolve deadlocks faster at the cost of false restarts.

#include "bench_util.h"

namespace encompass::bench {
namespace {

void TableContentionSweep() {
  Header("E4.a throughput vs contention (8 terminals, 100 accounts)");
  printf("%8s %12s %12s %14s %12s\n", "skew", "txn/s(sim)", "lock waits",
         "lock timeouts", "restarts");
  for (double skew : {0.0, 0.5, 0.9, 0.99}) {
    BankRig rig = MakeBankRig(/*seed=*/81, /*cpus=*/8, /*accounts=*/100,
                              /*terminals=*/8, /*iterations=*/40, skew,
                              /*lock_timeout=*/Millis(200),
                              /*restart_limit=*/1000);
    SimTime makespan = RunUntilProgramsDone(rig, 8 * 40);
    auto& stats = rig.sim->GetStats();
    printf("%8.2f %12.1f %12lld %14lld %12llu\n", skew,
           TxnPerSec(rig.Primary()->transactions_committed(), makespan),
           (long long)stats.Counter("disc.lock_waits"),
           (long long)stats.Counter("disc.lock_timeouts"),
           (unsigned long long)rig.Primary()->transactions_restarted());
    if (skew == 0.99) ReportSimStats("e4a.skew99", rig.sim->GetStats());
  }
}

void TableHotAccountSweep() {
  Header("E4.b throughput vs table size (8 terminals, uniform access)");
  printf("%10s %12s %14s %12s\n", "accounts", "txn/s(sim)", "lock timeouts",
         "restarts");
  for (int accounts : {4, 8, 20, 100, 1000}) {
    BankRig rig = MakeBankRig(/*seed=*/83, /*cpus=*/8, accounts,
                              /*terminals=*/8, /*iterations=*/40, 0.0,
                              Millis(200), /*restart_limit=*/1000);
    SimTime makespan = RunUntilProgramsDone(rig, 8 * 40);
    printf("%10d %12.1f %14lld %12llu\n", accounts,
           TxnPerSec(rig.Primary()->transactions_committed(), makespan),
           (long long)rig.sim->GetStats().Counter("disc.lock_timeouts"),
           (unsigned long long)rig.Primary()->transactions_restarted());
  }
}

void TableTimeoutSweep() {
  Header("E4.c deadlock-detection timeout sweep (4 accounts, 8 terminals)");
  printf("%14s %12s %14s %12s %12s\n", "timeout (ms)", "txn/s(sim)",
         "lock timeouts", "restarts", "failed");
  for (SimDuration timeout : {Millis(50), Millis(200), Millis(1000),
                              Millis(3000)}) {
    BankRig rig = MakeBankRig(/*seed=*/87, /*cpus=*/8, /*accounts=*/4,
                              /*terminals=*/8, /*iterations=*/25, 0.0, timeout,
                              /*restart_limit=*/2000);
    SimTime makespan = RunUntilProgramsDone(rig, 8 * 25, Seconds(7200));
    printf("%14lld %12.1f %14lld %12llu %12llu\n",
           static_cast<long long>(timeout / 1000),
           TxnPerSec(rig.Primary()->transactions_committed(), makespan),
           (long long)rig.sim->GetStats().Counter("disc.lock_timeouts"),
           (unsigned long long)rig.Primary()->transactions_restarted(),
           (unsigned long long)rig.Primary()->programs_failed());
  }
  printf("(deadlock detection is BY TIMEOUT — no wait-for graph exists;\n"
         " the timeout trades detection latency against false restarts)\n");
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e4_locking");
  encompass::bench::ReportMeta(/*seed=*/81);
  printf("E4: decentralized locking and timeout deadlock resolution\n");
  encompass::bench::TableContentionSweep();
  encompass::bench::TableHotAccountSweep();
  encompass::bench::TableTimeoutSweep();
  encompass::bench::WriteReport();
  return 0;
}
