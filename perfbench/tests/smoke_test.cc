// Tiny-size smoke runs of every workload: each must pass its correctness
// gates and report its end-to-end metrics.

#include <gtest/gtest.h>

#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

std::string GateReport(const RunResult& r) {
  std::string out;
  for (const Gate& g : r.gates) {
    out += g.name + (g.ok ? " ok: " : " FAILED: ") + g.detail + "\n";
  }
  return out;
}

RunResult Smoke(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 3;
  o.seconds = 1;
  o.trace = trace;
  o.tiny = true;
  return RunWorkload(o);
}

void ExpectEndToEnd(const RunResult& r) {
  for (const char* name : {"commit_p50_ms", "commit_p99_ms", "committed_tps",
                           "txns_per_wall_s", "setup_s", "peak_rss_mb"}) {
    ASSERT_TRUE(r.metrics.count(name)) << name;
    EXPECT_GT(r.metrics.at(name), 0) << name;
  }
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(SmokeTest, LocalTpPassesGates) {
  RunResult r = Smoke("local-tp", /*trace=*/false);
  EXPECT_TRUE(r.correct()) << GateReport(r);
  ExpectEndToEnd(r);
  EXPECT_EQ(r.metrics.at("msgs_per_txn"), 0);  // one node: no network
  EXPECT_GT(r.metrics.at("inquiry.samples"), 0);
}

TEST(SmokeTest, LocalTpTracedDropsNothing) {
  RunResult r = Smoke("local-tp", /*trace=*/true);
  EXPECT_TRUE(r.correct()) << GateReport(r);
  EXPECT_EQ(r.metrics.at("trace.dropped"), 0);
  EXPECT_GT(r.metrics.at("trace.events"), 0);
  EXPECT_GT(r.metrics.at("tmf.phase1_ms.p50"), 0);
  EXPECT_EQ(r.metrics.at("net.sent_per_txn"), 0);
}

TEST(SmokeTest, Dist2pcPassesGatesAndPoolMatches) {
  RunResult r = Smoke("dist-2pc", /*trace=*/false);
  EXPECT_TRUE(r.correct()) << GateReport(r);
  ExpectEndToEnd(r);
  bool pool_gate = false;
  for (const Gate& g : r.gates) pool_gate |= g.name == "pool_matches_single_loop";
  EXPECT_TRUE(pool_gate);
  EXPECT_GT(r.metrics.at("msgs_per_txn"), 0);
}

TEST(SmokeTest, StormPassesOracle) {
  RunResult r = Smoke("storm", /*trace=*/false);
  EXPECT_TRUE(r.correct()) << GateReport(r);
  ExpectEndToEnd(r);
}

TEST(SmokeTest, UnknownWorkloadIsNotCorrect) {
  RunOptions o;
  o.workload = "nope";
  EXPECT_FALSE(RunWorkload(o).correct());
}

}  // namespace
}  // namespace perfbench
