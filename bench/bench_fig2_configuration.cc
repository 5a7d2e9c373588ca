// F2 — Figure 2 (a typical ENCOMPASS configuration). Reproduces the shape
// of the configuration's scaling story: throughput grows with processors,
// terminals, and dynamically created servers; the server class expands
// under load and contracts when idle.

#include "bench_util.h"

namespace encompass::bench {
namespace {

void TableThroughputVsCpus() {
  Header("F2.a throughput vs processors (24 terminals, CPU-bound workload)");
  printf("%6s %12s %12s %12s\n", "cpus", "txn/s(sim)", "committed", "failed");
  for (int cpus : {2, 4, 8, 16}) {
    // A heavy per-message CPU cost makes the processors the bottleneck, as
    // on real hardware of the era.
    BankRig rig = MakeBankRig(/*seed=*/11, cpus, /*accounts=*/200,
                              /*terminals=*/24, /*iterations=*/30,
                              /*skew=*/0.0, Millis(500), 100,
                              /*cpu_service=*/Micros(400));
    SimTime makespan = RunUntilProgramsDone(rig, 24 * 30);
    auto* tcp = rig.Primary();
    const double tps = TxnPerSec(tcp->transactions_committed(), makespan);
    printf("%6d %12.1f %12llu %12llu\n", cpus, tps,
           (unsigned long long)tcp->transactions_committed(),
           (unsigned long long)tcp->programs_failed());
    ReportValue("f2.a.cpus" + std::to_string(cpus) + ".txns_per_sec", tps);
  }
}

void TableThroughputVsTerminals() {
  Header("F2.b throughput vs terminals (8 cpus, 200 accounts)");
  printf("%10s %12s %14s %16s\n", "terminals", "txn/s(sim)", "peak servers",
         "restarts");
  for (int terminals : {1, 2, 4, 8, 16, 32}) {
    BankRig rig = MakeBankRig(/*seed=*/13, /*cpus=*/8, /*accounts=*/200,
                              terminals, /*iterations=*/30);
    SimTime makespan =
        RunUntilProgramsDone(rig, static_cast<uint64_t>(terminals) * 30);
    auto* tcp = rig.Primary();
    const double tps = TxnPerSec(tcp->transactions_committed(), makespan);
    const int64_t peak = rig.sim->GetStats().Counter("serverclass.spawned");
    printf("%10d %12.1f %14lld %16llu\n", terminals, tps, (long long)peak,
           (unsigned long long)tcp->transactions_restarted());
    const std::string key = "f2.b.terminals" + std::to_string(terminals);
    ReportValue(key + ".txns_per_sec", tps);
    ReportValue(key + ".peak_servers", static_cast<double>(peak));
  }
}

void TableDynamicServerClass() {
  Header("F2.c dynamic server creation/deletion under a load burst");
  BankRig rig = MakeBankRig(/*seed=*/17, /*cpus=*/8, /*accounts=*/200,
                            /*terminals=*/24, /*iterations=*/20);
  rig.sim->RunFor(Seconds(600));
  rig.sim->Run();
  auto& stats = rig.sim->GetStats();
  const int64_t spawned = stats.Counter("serverclass.spawned");
  printf("servers created under load : %lld\n", (long long)spawned);
  ReportValue("f2.c.spawned", static_cast<double>(spawned));
  // Idle period: the class contracts back to its floor.
  rig.sim->RunFor(Seconds(30));
  const int64_t reaped = stats.Counter("serverclass.reaped");
  printf("servers deleted when idle  : %lld\n", (long long)reaped);
  ReportValue("f2.c.reaped", static_cast<double>(reaped));
  const auto* depth = stats.FindHistogram("serverclass.queue_depth");
  if (depth != nullptr) {
    printf("request queue depth        : p50=%lld p99=%lld max=%lld\n",
           (long long)depth->Percentile(50), (long long)depth->Percentile(99),
           (long long)depth->Max());
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("fig2_configuration");
  encompass::bench::ReportMeta(/*seed=*/11);
  printf("F2: Figure 2 — ENCOMPASS configuration scaling\n");
  encompass::bench::TableThroughputVsCpus();
  encompass::bench::TableThroughputVsTerminals();
  encompass::bench::TableDynamicServerClass();
  encompass::bench::WriteReport();
  return 0;
}
