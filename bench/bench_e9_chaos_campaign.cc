// E9 — Chaos recovery campaign. "The failure of a single component will not
// disrupt any other component — recovery, not failure masking, is what keeps
// the data base consistent." Runs the seeded fault-storm campaign across
// many seeds and reports survival statistics: atomicity-oracle verdicts,
// quiesce rate, recovery work, and what the storms actually threw at the
// cluster; then storms the queue execution lane.

#include "bench_util.h"
#include "encompass/chaos.h"

namespace encompass::bench {
namespace {

app::ChaosCampaignConfig CampaignConfig(uint64_t seed) {
  app::ChaosCampaignConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.accounts_per_node = 20;
  cfg.clients_per_node = 2;
  cfg.schedule.faults = 8;
  cfg.schedule.min_node_crashes = 1;
  return cfg;
}

/// The survival verdict E9.a and E9.c count.
bool Survived(const app::ChaosCampaignResult& r) {
  return r.quiesced && r.violations.empty() &&
         r.balance_sum == r.expected_sum && r.leaked_locks == 0;
}

void TableSurvival() {
  Header("E9.a campaign survival across seeds");
  printf("%6s %7s %8s %7s %9s %9s %9s %8s %9s\n", "seed", "faults", "crashes",
         "txns", "committed", "aborted", "unknown", "quiesced", "violations");
  size_t runs = 0, survived = 0, total_faults = 0, total_crashes = 0;
  uint64_t total_txns = 0, total_committed = 0;
  size_t total_negotiated = 0, total_redo = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    app::ChaosCampaignResult r = app::RunChaosCampaign(CampaignConfig(seed));
    ++runs;
    if (Survived(r)) ++survived;
    total_faults += r.faults_fired;
    total_crashes += r.node_crashes;
    total_txns += r.txns_started;
    total_committed += r.txns_committed;
    total_negotiated += r.rollforward_negotiated;
    total_redo += r.rollforward_redo_applied;
    printf("%6llu %7zu %8zu %7llu %9llu %9llu %9llu %8s %9zu\n",
           static_cast<unsigned long long>(seed), r.faults_fired,
           r.node_crashes, static_cast<unsigned long long>(r.txns_started),
           static_cast<unsigned long long>(r.txns_committed),
           static_cast<unsigned long long>(r.txns_aborted),
           static_cast<unsigned long long>(r.txns_unknown),
           r.quiesced ? "yes" : "NO", r.violations.size());
  }
  printf("survived %zu/%zu storms; %zu faults (%zu node crashes), "
         "%llu txns (%llu committed), rollforward negotiated %zu, "
         "redo images %zu\n",
         survived, runs, total_faults, total_crashes,
         static_cast<unsigned long long>(total_txns),
         static_cast<unsigned long long>(total_committed), total_negotiated,
         total_redo);
  ReportValue("runs", static_cast<double>(runs));
  ReportValue("survived", static_cast<double>(survived));
  ReportValue("faults_fired", static_cast<double>(total_faults));
  ReportValue("node_crashes", static_cast<double>(total_crashes));
  ReportValue("txns_started", static_cast<double>(total_txns));
  ReportValue("txns_committed", static_cast<double>(total_committed));
  ReportValue("rollforward_negotiated", static_cast<double>(total_negotiated));
  ReportValue("rollforward_redo_applied", static_cast<double>(total_redo));
}

void TableStormShape() {
  Header("E9.b what one storm throws (seed 1 schedule)");
  printf("%s", app::ChaosSchedule(CampaignConfig(1)).Dump().c_str());
  printf("(every fault heals; heavy faults get disjoint windows; the seed\n"
         " regenerates this schedule, so ChaosSchedule + ReplayChaosCampaign\n"
         " replay the storm bit-identically)\n");
}

void TableQueueLane() {
  Header("E9.c queue-lane storms: whole transactions through $QPLAN");
  // Every node on the queue execution lane: clients submit predeclared
  // transactions to the planner instead of the lock-lane verb sequence.
  // A queue-lane commit is an ordinary 2PC commit, so the oracle applies.
  printf("%6s %8s %7s %9s %8s %9s\n", "seed", "crashes", "txns", "committed",
         "quiesced", "violations");
  size_t runs = 0, survived = 0;
  uint64_t committed = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    app::ChaosCampaignConfig cfg = CampaignConfig(seed);
    cfg.queue_lane = true;
    app::ChaosCampaignResult r = app::RunChaosCampaign(cfg);
    ++runs;
    if (Survived(r)) ++survived;
    committed += r.txns_committed;
    printf("%6llu %8zu %7llu %9llu %8s %9zu\n",
           static_cast<unsigned long long>(seed), r.node_crashes,
           static_cast<unsigned long long>(r.txns_started),
           static_cast<unsigned long long>(r.txns_committed),
           r.quiesced ? "yes" : "NO", r.violations.size());
  }
  printf("survived %zu/%zu queue-lane storms\n", survived, runs);
  ReportValue("e9.c.runs", static_cast<double>(runs));
  ReportValue("e9.c.survived", static_cast<double>(survived));
  ReportValue("e9.c.txns_committed", static_cast<double>(committed));
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e9_chaos_campaign");
  encompass::bench::ReportMeta(/*seed=*/1);
  printf("E9: chaos recovery campaign — fault storms vs the atomicity oracle\n");
  encompass::bench::TableSurvival();
  encompass::bench::TableStormShape();
  encompass::bench::TableQueueLane();
  encompass::bench::WriteReport();
  return 0;
}
