// E12 — Paxos Commit vs 2PC under fault storms. The in-doubt window is
// 2PC's blocking failure mode: a participant of a crashed home holds its
// locks until the home returns. Paxos Commit replicates the commit decision
// across a 2F+1 acceptor group so any live majority can answer in the home's
// stead. This bench prices that trade on the BENCH_e9 storm schedules:
// fewer blocked in-doubt transactions at recovery, shorter blocked-lock
// holds, against an extra acceptor round trip before the commit point.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"
#include "encompass/chaos.h"

namespace encompass::bench {
namespace {

// Same storm floor as BENCH_e9 / the PR-4 chaos campaign: three nodes,
// >= 8 faults, at least one total node crash.
app::ChaosCampaignConfig CampaignConfig(uint64_t seed, bool paxos) {
  app::ChaosCampaignConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.accounts_per_node = 20;
  cfg.clients_per_node = 2;
  cfg.schedule.faults = 10;
  cfg.schedule.min_node_crashes = 2;
  cfg.schedule.w_crash = 1.5;
  // Long dead-home windows are where the protocols separate: a 2PC
  // participant stranded by the crash stays in-doubt for the whole outage,
  // while Paxos Commit resolves against the acceptor majority ~600ms in
  // (one grace tick + one escalated round). 2-4s outages give escalation
  // room to finish well before the recovery census.
  cfg.schedule.min_heal = 2'000'000;
  cfg.schedule.max_heal = 4'000'000;
  cfg.schedule.crash_recovery_pad = 4'000'000;
  // Probe dead-home windows faster than the storm heals them: under 2PC
  // every tick of an outage is a blocked retry; under Paxos Commit the
  // first post-grace tick escalates to the acceptor majority.
  cfg.indoubt_resolve_interval = Millis(250);
  if (paxos) {
    cfg.commit_protocol = tmf::CommitProtocol::kPaxos;
    cfg.commit_replication = 3;  // 2F+1, F = 1
  }
  return cfg;
}

struct ProtocolTotals {
  size_t runs = 0, survived = 0;
  size_t indoubt_at_recovery = 0;  // headline: stranded at node return
  int64_t blocked = 0;        // tmf.indoubt_blocked_on_home, summed
  int64_t via_acceptors = 0;  // paxos-only resolution path
  int64_t hold_count = 0;
  double hold_p99_ms = 0;   // worst across seeds
  double hold_max_ms = 0;   // worst across seeds
  double commit_p50_ms = 0; // worst across seeds
  double commit_p99_ms = 0; // worst across seeds
};

constexpr uint64_t kFirstSeed = 1, kLastSeed = 8;

ProtocolTotals RunSeeds(bool paxos) {
  ProtocolTotals t;
  printf("%6s %8s %8s %9s %9s %9s %10s %10s %9s %9s\n", "seed", "indoubt",
         "blocked", "via_acc", "hold_n", "hold_p99", "hold_max", "commit_p50",
         "commit_p99", "survived");
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    app::ChaosCampaignResult r =
        app::RunChaosCampaign(CampaignConfig(seed, paxos));
    const bool ok = r.quiesced && r.violations.empty() &&
                    r.balance_sum == r.expected_sum && r.leaked_locks == 0;
    ++t.runs;
    if (ok) ++t.survived;
    t.indoubt_at_recovery += r.indoubt_at_recovery;
    t.blocked += r.indoubt_blocked_on_home;
    t.via_acceptors += r.indoubt_resolved_via_acceptors;
    t.hold_count += r.indoubt_hold_count;
    t.hold_p99_ms = std::max(t.hold_p99_ms, r.indoubt_hold_p99_ms);
    t.hold_max_ms = std::max(t.hold_max_ms, r.indoubt_hold_max_ms);
    t.commit_p50_ms = std::max(t.commit_p50_ms, r.commit_latency_p50_ms);
    t.commit_p99_ms = std::max(t.commit_p99_ms, r.commit_latency_p99_ms);
    printf("%6llu %8zu %8lld %9lld %9lld %9.1f %10.1f %10.2f %9.2f %9s\n",
           static_cast<unsigned long long>(seed), r.indoubt_at_recovery,
           static_cast<long long>(r.indoubt_blocked_on_home),
           static_cast<long long>(r.indoubt_resolved_via_acceptors),
           static_cast<long long>(r.indoubt_hold_count), r.indoubt_hold_p99_ms,
           r.indoubt_hold_max_ms, r.commit_latency_p50_ms,
           r.commit_latency_p99_ms, ok ? "yes" : "NO");
  }
  return t;
}

void TableProtocolComparison() {
  Header("E12.a 2PC vs Paxos Commit across the E9 storm seeds");
  printf("two-phase commit (the paper's protocol):\n");
  ProtocolTotals two = RunSeeds(/*paxos=*/false);
  printf("\npaxos commit, 3 acceptors (F = 1):\n");
  ProtocolTotals pax = RunSeeds(/*paxos=*/true);

  printf("\nin-doubt transactions at recovery (stranded on a dead home when "
         "it returned): 2pc %zu vs paxos %zu\n",
         two.indoubt_at_recovery, pax.indoubt_at_recovery);
  printf("blocked in-doubt resolve ticks: 2pc %lld vs paxos %lld; "
         "paxos resolved %lld dispositions via acceptor majorities\n",
         static_cast<long long>(two.blocked),
         static_cast<long long>(pax.blocked),
         static_cast<long long>(pax.via_acceptors));
  printf("blocked-lock hold (worst seed): 2pc p99 %.1fms max %.1fms vs "
         "paxos p99 %.1fms max %.1fms\n",
         two.hold_p99_ms, two.hold_max_ms, pax.hold_p99_ms, pax.hold_max_ms);
  printf("commit latency at the home (worst seed): 2pc p50 %.2fms p99 %.2fms "
         "vs paxos p50 %.2fms p99 %.2fms — the acceptor round trip\n",
         two.commit_p50_ms, two.commit_p99_ms, pax.commit_p50_ms,
         pax.commit_p99_ms);

  ReportValue("runs_per_protocol", static_cast<double>(two.runs));
  ReportValue("survived_2pc", static_cast<double>(two.survived));
  ReportValue("survived_paxos", static_cast<double>(pax.survived));
  ReportValue("indoubt_at_recovery_2pc",
              static_cast<double>(two.indoubt_at_recovery));
  ReportValue("indoubt_at_recovery_paxos",
              static_cast<double>(pax.indoubt_at_recovery));
  ReportValue("indoubt_blocked_2pc", static_cast<double>(two.blocked));
  ReportValue("indoubt_blocked_paxos", static_cast<double>(pax.blocked));
  ReportValue("via_acceptors_paxos", static_cast<double>(pax.via_acceptors));
  ReportValue("hold_p99_ms_2pc", two.hold_p99_ms);
  ReportValue("hold_p99_ms_paxos", pax.hold_p99_ms);
  ReportValue("hold_max_ms_2pc", two.hold_max_ms);
  ReportValue("hold_max_ms_paxos", pax.hold_max_ms);
  ReportValue("commit_p50_ms_2pc", two.commit_p50_ms);
  ReportValue("commit_p50_ms_paxos", pax.commit_p50_ms);
  ReportValue("commit_p99_ms_2pc", two.commit_p99_ms);
  ReportValue("commit_p99_ms_paxos", pax.commit_p99_ms);
}

void TableEngineIdentity() {
  Header("E12.b same seed, same storm, every worker count (both protocols)");
  const int workers[] = {1, 2, 4, 8};
  int divergence = 0;
  for (int paxos = 0; paxos <= 1; ++paxos) {
    app::ChaosCampaignConfig cfg = CampaignConfig(kFirstSeed, paxos != 0);
    app::ChaosCampaignResult base = app::RunChaosCampaign(cfg);
    printf("%-10s", paxos ? "paxos" : "two-phase");
    for (int w : workers) {
      cfg.parallel_workers = w;
      app::ChaosCampaignResult r = app::RunChaosCampaign(cfg);
      const bool same = r.txns_started == base.txns_started &&
                        r.txns_committed == base.txns_committed &&
                        r.txns_aborted == base.txns_aborted &&
                        r.txns_unknown == base.txns_unknown &&
                        r.balance_sum == base.balance_sum &&
                        r.journal == base.journal;
      if (!same) ++divergence;
      printf(" w%d:%s", w, same ? "ok" : "DIVERGED");
    }
    printf("\n");
  }
  printf("(fingerprint: txn counts + balance sum + fault journal)\n");
  ReportValue("divergence", static_cast<double>(divergence));
}

void BM_PaxosChaosCampaign(benchmark::State& state) {
  uint64_t seed = 100;
  for (auto _ : state) {
    app::ChaosCampaignResult r =
        app::RunChaosCampaign(CampaignConfig(seed++, /*paxos=*/true));
    benchmark::DoNotOptimize(r.balance_sum);
    if (!r.quiesced || !r.violations.empty()) {
      state.SkipWithError("campaign failed");
      break;
    }
  }
}
BENCHMARK(BM_PaxosChaosCampaign)->Iterations(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace encompass::bench

int main(int argc, char** argv) {
  encompass::bench::InitReport("e12_paxos_commit");
  encompass::bench::ReportMeta(/*seed=*/1);
  printf("E12: Paxos Commit vs 2PC — pricing the in-doubt window\n");
  encompass::bench::TableProtocolComparison();
  encompass::bench::TableEngineIdentity();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  encompass::bench::WriteReport();
  return 0;
}
