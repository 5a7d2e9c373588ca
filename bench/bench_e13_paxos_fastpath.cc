// E13 — Paxos Commit vs 2PC under fault storms. The in-doubt window is
// 2PC's blocking failure mode: a participant of a crashed home holds its
// locks until the home returns. Paxos Commit (Gray & Lamport's F+1-message
// form) closes it without 2PC's commit-point cost: every participant sends
// its phase-2a prepared vote straight to the F+1 nearest of 2F+1 acceptors
// (co-located first — a local forced write, not a network message), the
// home's vote-ack tally IS the commit point, and any live acceptor majority
// settles an in-doubt transaction while the home is down. This bench prices
// the two protocols over the same storms: in-doubt transactions stranded at
// recovery, blocked resolve ticks and blocked-lock holds, commit latency
// (paxos targeted within ~1.15x of 2PC), cross-node messages per committed
// transaction, acceptor-log boundedness under GC, and engine identity at
// every worker count.

#include <algorithm>
#include <string>

#include "bench_util.h"
#include "encompass/chaos.h"

namespace encompass::bench {
namespace {

using tmf::CommitProtocol;

const char* ModeName(CommitProtocol p) {
  return p == CommitProtocol::kPaxos ? "paxos" : "2pc";
}

// Three nodes, >= 10 faults, two node crashes. Long dead-home windows are
// where the protocols separate: a 2PC participant stranded by the crash
// stays in-doubt for the whole outage, while Paxos Commit resolves against
// the acceptor majority ~600ms in (one grace tick + one escalated round).
// 2-4s outages give escalation room to finish well before the recovery
// census, and the resolve tick probes dead-home windows faster than the
// storm heals them. Message accounting is on — the per-transaction message
// count is one of the headlines.
app::ChaosCampaignConfig CampaignConfig(uint64_t seed, CommitProtocol mode) {
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
  cfg.commit_protocol = mode;
  cfg.commit_replication = 3;  // 2F+1, F = 1 (paxos only)
  return cfg;
}

struct ModeTotals {
  size_t runs = 0, survived = 0;
  size_t indoubt_at_recovery = 0;  // headline: stranded at node return
  int64_t blocked = 0;             // tmf.indoubt_blocked_on_home, summed
  int64_t via_acceptors = 0;       // paxos-only resolution path
  double hold_p99_ms = 0;          // worst across seeds
  double hold_max_ms = 0;          // worst across seeds
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

ModeTotals RunSeeds(CommitProtocol mode) {
  ModeTotals t;
  printf("%4s %9s %8s %7s %7s %7s %8s %9s %10s %10s %8s %9s %8s\n", "seed",
         "committed", "msgs/txn", "indoubt", "blocked", "via_acc", "hold_p99",
         "hold_max", "commit_p50", "commit_p99", "log_peak", "log_final",
         "survived");
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    app::ChaosCampaignResult r =
        app::RunChaosCampaign(CampaignConfig(seed, mode));
    const bool ok = r.quiesced && r.violations.empty() &&
                    r.balance_sum == r.expected_sum && r.leaked_locks == 0;
    ++t.runs;
    if (ok) ++t.survived;
    t.indoubt_at_recovery += r.indoubt_at_recovery;
    t.blocked += r.indoubt_blocked_on_home;
    t.via_acceptors += r.indoubt_resolved_via_acceptors;
    t.hold_p99_ms = std::max(t.hold_p99_ms, r.indoubt_hold_p99_ms);
    t.hold_max_ms = std::max(t.hold_max_ms, r.indoubt_hold_max_ms);
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
    printf("%4llu %9llu %8.2f %7zu %7lld %7lld %8.1f %9.1f %10.2f %10.2f "
           "%8zu %9zu %8s\n",
           static_cast<unsigned long long>(seed),
           static_cast<unsigned long long>(r.txns_committed),
           r.msgs_per_committed_txn, r.indoubt_at_recovery,
           static_cast<long long>(r.indoubt_blocked_on_home),
           static_cast<long long>(r.indoubt_resolved_via_acceptors),
           r.indoubt_hold_p99_ms, r.indoubt_hold_max_ms,
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
  ReportValue(prefix + ".indoubt_blocked", static_cast<double>(t.blocked));
  ReportValue(prefix + ".via_acceptors", static_cast<double>(t.via_acceptors));
  ReportValue(prefix + ".hold_p99_ms", t.hold_p99_ms);
  ReportValue(prefix + ".hold_max_ms", t.hold_max_ms);
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
  Header("E13.a 2PC vs Paxos Commit across the storm seeds");
  printf("two-phase commit (the paper's protocol):\n");
  ModeTotals two = RunSeeds(CommitProtocol::kTwoPhase);
  printf("\npaxos commit, 3 acceptors (F = 1; direct F+1 votes, co-located "
         "first):\n");
  ModeTotals pax = RunSeeds(CommitProtocol::kPaxos);

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
  printf("cross-node messages per committed txn: 2pc %.2f, paxos %.2f\n",
         MsgsPerTxn(two), MsgsPerTxn(pax));
  printf("commit latency p50 (worst seed): 2pc %.2fms, paxos %.2fms "
         "(paxos/2pc = %.3fx, target <= ~1.15x)\n",
         two.commit_p50_ms, pax.commit_p50_ms,
         two.commit_p50_ms > 0 ? pax.commit_p50_ms / two.commit_p50_ms : 0);
  printf("paxos acceptor log: peak %zu instances, %zu left after GC, "
         "%lld duplicate votes absorbed\n",
         pax.acceptor_log_peak, pax.acceptor_log_final,
         static_cast<long long>(pax.duplicate_votes));

  EmitMode("2pc", two);
  EmitMode("paxos", pax);
  ReportValue("runs_per_mode", static_cast<double>(two.runs));
  ReportValue("paxos_vs_2pc_commit_p50_ratio",
              two.commit_p50_ms > 0
                  ? pax.commit_p50_ms / two.commit_p50_ms : 0);
}

void TableEngineIdentity() {
  Header("E13.b same seed, same storm, every worker count (both protocols)");
  const int workers[] = {1, 2, 4, 8};
  int divergence = 0;
  for (CommitProtocol mode :
       {CommitProtocol::kTwoPhase, CommitProtocol::kPaxos}) {
    app::ChaosCampaignConfig cfg = CampaignConfig(kFirstSeed, mode);
    app::ChaosCampaignResult base = app::RunChaosCampaign(cfg);
    printf("%-6s", ModeName(mode));
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

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e13_paxos_fastpath");
  encompass::bench::ReportMeta(/*seed=*/1);
  encompass::bench::ReportCommitConfig(encompass::tmf::CommitProtocol::kPaxos);
  printf("E13: Paxos Commit vs 2PC — closing the in-doubt window without a "
         "commit-latency tax\n");
  encompass::bench::TableProtocolComparison();
  encompass::bench::TableEngineIdentity();
  encompass::bench::WriteReport();
  return 0;
}
