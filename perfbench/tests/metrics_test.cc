// Metric arithmetic on fixed samples: percentiles, per-transaction ratios,
// failure shares, and the trace-span matcher.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "metrics.h"
#include "trace_spans.h"

namespace perfbench {
namespace {

using encompass::sim::TraceEvent;
using encompass::sim::TraceEventKind;

TEST(PercentileTest, EmptySampleIsZero) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Samples().P(99), 0);
}

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  EXPECT_EQ(Percentile({7}, 0), 7);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({7}, 100), 7);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  // Unsorted on purpose; sorted it is 1 2 3 4 5 6 7 8 9 10.
  const std::vector<double> v = {10, 3, 7, 1, 9, 2, 8, 4, 6, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);    // rank 4.5
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 9.1);    // rank 8.1
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 9.91);   // rank 8.91
  EXPECT_DOUBLE_EQ(Median({4, 1, 3}), 3);
}

TEST(PercentileTest, ClampsOutOfRangeP) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, -5), 1);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 150), 3);
}

TEST(PercentileTest, SamplesAppendMergesNodes) {
  Samples a, b;
  a.Add(1);
  a.Add(3);
  b.Add(2);
  a.Append(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.P(50), 2);
}

TEST(RatioTest, PerTxnAndHitRate) {
  EXPECT_DOUBLE_EQ(PerTxn(300, 100), 3.0);
  EXPECT_EQ(PerTxn(5, 0), 0);  // no commits: defined as 0, never inf
  EXPECT_DOUBLE_EQ(HitRate(90, 10), 0.9);
  EXPECT_EQ(HitRate(0, 0), 0);
}

TEST(RatioTest, FailedShare) {
  EXPECT_DOUBLE_EQ(FailedShare(5, 200), 0.025);
  EXPECT_EQ(FailedShare(0, 200), 0);
  EXPECT_EQ(FailedShare(0, 0), 0);
}

TEST(JsonTest, FullPrecisionAndNonFiniteAsNull) {
  EXPECT_EQ(ToJson({{"a", 0.1}, {"b", 2}}),
            "{\"a\": 0.10000000000000001, \"b\": 2}");
  EXPECT_EQ(ToJson({{"c", std::numeric_limits<double>::infinity()}}),
            "{\"c\": null}");
}

TraceEvent Ev(int64_t time, TraceEventKind kind, uint64_t txn, uint16_t node,
              uint32_t span = 0, uint32_t a = 0, uint32_t b = 0) {
  TraceEvent e;
  e.time = time;
  e.kind = kind;
  e.transid = txn;
  e.node = node;
  e.span = span;
  e.a = a;
  e.b = b;
  return e;
}

TEST(TraceSpansTest, MatchesPhasesAcrossChunks) {
  TraceSpans s;
  // Chunk 1: phase 1 starts at the home (node 1); a cross-node send leaves,
  // and a same-node send (bus) must not count as a network flight.
  s.Consume({Ev(100, TraceEventKind::kPhase1Start, 7, 1),
             Ev(110, TraceEventKind::kMsgSend, 7, 1, /*span=*/5, 0, /*b=*/2),
             Ev(111, TraceEventKind::kMsgSend, 7, 1, /*span=*/6, 0, /*b=*/1)});
  // Chunk 2: everything completes.
  s.Consume({Ev(125, TraceEventKind::kMsgDeliver, 7, 2, 5),
             Ev(126, TraceEventKind::kMsgDeliver, 7, 1, 6),
             Ev(300, TraceEventKind::kPhase1Done, 7, 1, 0, /*a=*/1),
             Ev(380, TraceEventKind::kCommitRecord, 7, 1),
             Ev(390, TraceEventKind::kPhase2Queued, 7, 1, 0, 0, /*b=*/2),
             Ev(420, TraceEventKind::kPhase2Recv, 7, 2)});
  EXPECT_EQ(s.events(), 9u);
  ASSERT_EQ(s.phase1_us.count(), 1u);
  EXPECT_EQ(s.phase1_us.P(50), 200);
  ASSERT_EQ(s.commit_force_us.count(), 1u);
  EXPECT_EQ(s.commit_force_us.P(50), 80);
  ASSERT_EQ(s.phase2_lag_us.count(), 1u);
  EXPECT_EQ(s.phase2_lag_us.P(50), 30);
  ASSERT_EQ(s.flight_us.count(), 1u);
  EXPECT_EQ(s.flight_us.P(50), 15);
}

TEST(TraceSpansTest, NoVoteHasNoCommitForce) {
  TraceSpans s;
  s.Consume({Ev(0, TraceEventKind::kPhase1Start, 9, 1),
             Ev(50, TraceEventKind::kPhase1Done, 9, 1, 0, /*a=*/0)});
  EXPECT_EQ(s.phase1_us.count(), 1u);
  EXPECT_EQ(s.commit_force_us.count(), 0u);
}

}  // namespace
}  // namespace perfbench
