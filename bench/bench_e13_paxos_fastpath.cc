// E13 — the Paxos Commit fast path. Decision-replication Paxos (E12) buys
// the non-blocking in-doubt window at the price of an acceptor round trip
// after phase 1: the home learns every prepared vote, then replicates its
// decision, so the commit point lags 2PC by one WAN delay. The fast path
// removes that round: every participant sends its phase-2a prepared vote
// straight to the F+1 nearest acceptors (co-located first — a local forced
// write, not a network message), and the home's vote-ack tally IS the
// commit point. This bench prices all three protocols over the E12 storm
// shapes: commit latency (fast path targeted within ~1.15x of 2PC),
// cross-node messages per committed transaction (fewer than E12's paxos),
// acceptor-log boundedness under GC, and engine-identity at every worker
// count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_util.h"
#include "encompass/chaos.h"

namespace encompass::bench {
namespace {

enum class Mode { kTwoPhase, kPaxos, kFastPath };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kTwoPhase: return "2pc";
    case Mode::kPaxos: return "paxos";
    case Mode::kFastPath: return "paxos_fast";
  }
  return "?";
}

// The E12 storm shape: three nodes, >= 10 faults, two node crashes, long
// dead-home windows, fast in-doubt probing. Message accounting is on — the
// per-transaction message count is this bench's headline.
app::ChaosCampaignConfig CampaignConfig(uint64_t seed, Mode mode) {
  app::ChaosCampaignConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.accounts_per_node = 20;
  cfg.clients_per_node = 2;
  cfg.schedule.faults = 10;
  cfg.schedule.min_node_crashes = 2;
  cfg.schedule.w_crash = 1.5;
  cfg.schedule.min_heal = 2'000'000;
  cfg.schedule.max_heal = 4'000'000;
  cfg.schedule.crash_recovery_pad = 4'000'000;
  cfg.indoubt_resolve_interval = Millis(250);
  cfg.track_messages = true;
  if (mode != Mode::kTwoPhase) {
    cfg.commit_protocol = tmf::CommitProtocol::kPaxos;
    cfg.commit_replication = 3;  // 2F+1, F = 1
    cfg.paxos_fast_path = mode == Mode::kFastPath;
  }
  return cfg;
}

struct ModeTotals {
  size_t runs = 0, survived = 0;
  size_t indoubt_at_recovery = 0;
  uint64_t committed = 0;
  uint64_t messages = 0;          // transid-attributed cross-node sends
  double commit_p50_ms = 0;       // worst across seeds
  double commit_p99_ms = 0;       // worst across seeds
  size_t acceptor_log_peak = 0;   // worst across seeds
  size_t acceptor_log_final = 0;  // summed (should be ~0 after GC)
  int64_t duplicate_votes = 0;
  std::map<uint32_t, uint64_t> msgs_per_tag;
};

constexpr uint64_t kFirstSeed = 1, kLastSeed = 8;

ModeTotals RunSeeds(Mode mode) {
  ModeTotals t;
  printf("%6s %9s %10s %8s %10s %10s %9s %9s %9s\n", "seed", "committed",
         "msgs/txn", "indoubt", "commit_p50", "commit_p99", "log_peak",
         "log_final", "survived");
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    app::ChaosCampaignResult r =
        app::RunChaosCampaign(CampaignConfig(seed, mode));
    const bool ok = r.quiesced && r.violations.empty() &&
                    r.balance_sum == r.expected_sum && r.leaked_locks == 0;
    ++t.runs;
    if (ok) ++t.survived;
    t.indoubt_at_recovery += r.indoubt_at_recovery;
    t.committed += r.txns_committed;
    t.messages += r.tracked_messages;
    t.commit_p50_ms = std::max(t.commit_p50_ms, r.commit_latency_p50_ms);
    t.commit_p99_ms = std::max(t.commit_p99_ms, r.commit_latency_p99_ms);
    t.acceptor_log_peak = std::max(t.acceptor_log_peak, r.acceptor_log_peak);
    t.acceptor_log_final += r.acceptor_log_final;
    t.duplicate_votes += r.acceptor_duplicate_votes;
    for (const auto& [tag, count] : r.msgs_per_tag) {
      t.msgs_per_tag[tag] += count;
    }
    printf("%6llu %9llu %10.2f %8zu %10.2f %10.2f %9zu %9zu %9s\n",
           static_cast<unsigned long long>(seed),
           static_cast<unsigned long long>(r.txns_committed),
           r.msgs_per_committed_txn, r.indoubt_at_recovery,
           r.commit_latency_p50_ms, r.commit_latency_p99_ms,
           r.acceptor_log_peak, r.acceptor_log_final, ok ? "yes" : "NO");
  }
  return t;
}

double MsgsPerTxn(const ModeTotals& t) {
  if (t.committed == 0) return 0;
  return static_cast<double>(t.messages) / static_cast<double>(t.committed);
}

void EmitMode(const std::string& prefix, const ModeTotals& t) {
  ReportValue(prefix + ".survived", static_cast<double>(t.survived));
  ReportValue(prefix + ".indoubt_at_recovery",
              static_cast<double>(t.indoubt_at_recovery));
  ReportValue(prefix + ".committed", static_cast<double>(t.committed));
  ReportValue(prefix + ".net.msgs_per_txn", MsgsPerTxn(t));
  ReportValue(prefix + ".commit_p50_ms", t.commit_p50_ms);
  ReportValue(prefix + ".commit_p99_ms", t.commit_p99_ms);
  ReportValue(prefix + ".acceptor_log_peak",
              static_cast<double>(t.acceptor_log_peak));
  ReportValue(prefix + ".acceptor_log_final",
              static_cast<double>(t.acceptor_log_final));
  ReportValue(prefix + ".acceptor_duplicate_votes",
              static_cast<double>(t.duplicate_votes));
  for (const auto& [tag, count] : t.msgs_per_tag) {
    ReportValue(prefix + ".net.msgs." + NetTagName(tag),
                static_cast<double>(count));
  }
}

void TableProtocolComparison() {
  Header("E13.a 2PC vs Paxos vs fast-path Paxos across the storm seeds");
  printf("two-phase commit (the paper's protocol):\n");
  ModeTotals two = RunSeeds(Mode::kTwoPhase);
  printf("\npaxos commit, decision replication (E12):\n");
  ModeTotals pax = RunSeeds(Mode::kPaxos);
  printf("\npaxos commit, fast path (direct F+1 votes, co-located first):\n");
  ModeTotals fast = RunSeeds(Mode::kFastPath);

  printf("\ncross-node messages per committed txn: 2pc %.2f, paxos %.2f, "
         "fast %.2f\n",
         MsgsPerTxn(two), MsgsPerTxn(pax), MsgsPerTxn(fast));
  printf("commit latency p50 (worst seed): 2pc %.2fms, paxos %.2fms, "
         "fast %.2fms (fast/2pc = %.3fx, target <= ~1.15x)\n",
         two.commit_p50_ms, pax.commit_p50_ms, fast.commit_p50_ms,
         two.commit_p50_ms > 0 ? fast.commit_p50_ms / two.commit_p50_ms : 0);
  printf("in-doubt at recovery: 2pc %zu, paxos %zu, fast %zu\n",
         two.indoubt_at_recovery, pax.indoubt_at_recovery,
         fast.indoubt_at_recovery);
  printf("fast-path acceptor log: peak %zu instances, %zu left after GC, "
         "%lld duplicate votes absorbed\n",
         fast.acceptor_log_peak, fast.acceptor_log_final,
         static_cast<long long>(fast.duplicate_votes));

  EmitMode("2pc", two);
  EmitMode("paxos", pax);
  EmitMode("paxos_fast", fast);
  ReportValue("runs_per_mode", static_cast<double>(two.runs));
  ReportValue("fast_vs_2pc_commit_p50_ratio",
              two.commit_p50_ms > 0
                  ? fast.commit_p50_ms / two.commit_p50_ms : 0);
  ReportValue("fast_vs_paxos_msgs_delta", MsgsPerTxn(pax) - MsgsPerTxn(fast));
}

void TableEngineIdentity() {
  Header("E13.b same seed, same storm, every worker count (all three modes)");
  const int workers[] = {1, 2, 4, 8};
  int divergence = 0;
  for (Mode mode : {Mode::kTwoPhase, Mode::kPaxos, Mode::kFastPath}) {
    app::ChaosCampaignConfig cfg = CampaignConfig(kFirstSeed, mode);
    app::ChaosCampaignResult base = app::RunChaosCampaign(cfg);
    printf("%-11s", ModeName(mode));
    for (int w : workers) {
      cfg.parallel_workers = w;
      app::ChaosCampaignResult r = app::RunChaosCampaign(cfg);
      const bool same = r.txns_started == base.txns_started &&
                        r.txns_committed == base.txns_committed &&
                        r.txns_aborted == base.txns_aborted &&
                        r.txns_unknown == base.txns_unknown &&
                        r.balance_sum == base.balance_sum &&
                        r.tracked_messages == base.tracked_messages &&
                        r.journal == base.journal;
      if (!same) ++divergence;
      printf(" w%d:%s", w, same ? "ok" : "DIVERGED");
    }
    printf("\n");
  }
  printf("(fingerprint: txn counts + balance sum + message count + fault "
         "journal)\n");
  ReportValue("divergence", static_cast<double>(divergence));
}

void BM_FastPathChaosCampaign(benchmark::State& state) {
  uint64_t seed = 100;
  for (auto _ : state) {
    app::ChaosCampaignResult r =
        app::RunChaosCampaign(CampaignConfig(seed++, Mode::kFastPath));
    benchmark::DoNotOptimize(r.balance_sum);
    if (!r.quiesced || !r.violations.empty()) {
      state.SkipWithError("campaign failed");
      break;
    }
  }
}
BENCHMARK(BM_FastPathChaosCampaign)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace encompass::bench

int main(int argc, char** argv) {
  encompass::bench::InitReport("e13_paxos_fastpath");
  encompass::bench::ReportMeta(/*seed=*/1);
  encompass::bench::ReportCommitConfig(encompass::tmf::CommitProtocol::kPaxos,
                                       /*fast_path=*/true);
  printf("E13: the Paxos Commit fast path — one fewer WAN round trip\n");
  encompass::bench::TableProtocolComparison();
  encompass::bench::TableEngineIdentity();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  encompass::bench::WriteReport();
  return 0;
}
