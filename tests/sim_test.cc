// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace encompass::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    SimTime when;
    q.PopNext(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    SimTime when;
    q.PopNext(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&] { fired = true; });
  q.Cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.NextTime(), kNoDeadline);
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownIsNoop) {
  EventQueue q;
  q.Cancel(0);
  q.Cancel(12345);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelAfterFireIsTrueNoop) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Schedule(10, [&] { ++fired; });
  SimTime when;
  q.PopNext(&when)();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  // Cancelling the already-fired event must not tombstone future state or
  // decrement the live count below the truth.
  q.Cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.Schedule(20, [&] { ++fired; });
  q.Schedule(30, [&] { ++fired; });
  EXPECT_EQ(q.size(), 2u);
  EXPECT_FALSE(q.empty());
  while (!q.empty()) q.PopNext(&when)();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, DoubleCancelKeepsAccountingExact) {
  EventQueue q;
  EventId a = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(a);
  q.Cancel(a);  // second cancel of the same id is a no-op
  EXPECT_EQ(q.size(), 1u);
  SimTime when;
  q.PopNext(&when);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.NextTime(), kNoDeadline);
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1, [&] { order.push_back(1); });
  EventId mid = q.Schedule(2, [&] { order.push_back(2); });
  q.Schedule(3, [&] { order.push_back(3); });
  q.Cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) {
    SimTime when;
    q.PopNext(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SimulationTest, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.After(Millis(5), [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, Millis(5));
  EXPECT_EQ(sim.Now(), Millis(5));
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.After(10, [&] {
    times.push_back(sim.Now());
    sim.After(10, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.After(10, [&] { ++fired; });
  sim.After(20, [&] { ++fired; });
  sim.After(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulationTest, RunUntilAdvancesClockWithoutEvents) {
  Simulation sim;
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(sim.Now(), Seconds(1));
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.RunUntil(100);
  SimTime seen = -1;
  sim.After(-50, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 100);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<uint64_t> draws;
    for (int i = 0; i < 10; ++i) {
      sim.After(sim.RngFor(0).Uniform(100),
                [&] { draws.push_back(sim.RngFor(0).Next()); });
    }
    sim.Run();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(SimulationTest, CancelScheduledEvent) {
  Simulation sim;
  bool fired = false;
  auto id = sim.After(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(HistogramTest, PercentilesAndMoments) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50, 1);
  EXPECT_NEAR(h.Percentile(99), 99, 1);
  EXPECT_EQ(h.Percentile(0), 1);
  EXPECT_EQ(h.Percentile(100), 100);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(StatsTest, CountersAccumulate) {
  Stats s;
  s.Incr(s.RegisterCounter("a"));
  s.Incr(s.RegisterCounter("a"), 4);
  s.Incr(s.RegisterCounter("b"), -2);
  EXPECT_EQ(s.Counter("a"), 5);
  EXPECT_EQ(s.Counter("b"), -2);
  EXPECT_EQ(s.Counter("missing"), 0);
}

TEST(StatsTest, HistogramsAndDump) {
  Stats s;
  s.Record(s.RegisterHistogram("lat"), 10);
  s.Record(s.RegisterHistogram("lat"), 20);
  ASSERT_NE(s.FindHistogram("lat"), nullptr);
  EXPECT_EQ(s.FindHistogram("lat")->count(), 2u);
  EXPECT_EQ(s.FindHistogram("none"), nullptr);
  s.Incr(s.RegisterCounter("ops"), 3);
  std::string dump = s.ToString();
  EXPECT_NE(dump.find("ops = 3"), std::string::npos);
  EXPECT_NE(dump.find("lat:"), std::string::npos);
  s.Clear();
  EXPECT_EQ(s.Counter("ops"), 0);
}

TEST(FaultInjectorTest, FiresAndJournals) {
  Simulation sim;
  FaultInjector fi(&sim);
  int hits = 0;
  fi.InjectAt(Millis(10), "cpu 2 down", [&] { ++hits; });
  fi.InjectAt(sim.Now() + Millis(20), "link cut", [&] { ++hits; });
  EXPECT_EQ(fi.pending(), 2u);
  sim.Run();
  EXPECT_EQ(hits, 2);
  ASSERT_EQ(fi.journal().size(), 2u);
  EXPECT_EQ(fi.journal()[0].description, "cpu 2 down");
  EXPECT_EQ(fi.journal()[0].when, Millis(10));
  EXPECT_EQ(fi.journal()[1].description, "link cut");
  EXPECT_EQ(fi.pending(), 0u);
}

TEST(FaultInjectorTest, ReentrantSchedulingKeepsCountsExact) {
  // A firing action that schedules follow-up faults (the crash/heal pattern
  // every chaos campaign uses) must observe exact counters mid-firing: its
  // own firing is already counted, the newly scheduled one is pending.
  Simulation sim;
  FaultInjector fi(&sim);
  int fired_chain = 0;
  std::function<void(int)> chain = [&](int depth) {
    ++fired_chain;
    EXPECT_EQ(fi.fired(), static_cast<size_t>(fired_chain));
    if (depth > 0) {
      fi.InjectAt(sim.Now() + Millis(1), "chain " + std::to_string(depth - 1),
                  [&chain, depth] { chain(depth - 1); });
      // The re-entrant schedule is visible immediately.
      EXPECT_EQ(fi.pending(), 1u);
      EXPECT_EQ(fi.scheduled(), static_cast<size_t>(fired_chain) + 1);
    } else {
      EXPECT_EQ(fi.pending(), 0u);
    }
  };
  fi.InjectAt(Millis(1), "chain 3", [&chain] { chain(3); });
  EXPECT_EQ(fi.scheduled(), 1u);
  sim.Run();
  EXPECT_EQ(fired_chain, 4);
  EXPECT_EQ(fi.scheduled(), 4u);
  EXPECT_EQ(fi.fired(), 4u);
  EXPECT_EQ(fi.pending(), 0u);
  // Notes interleaved with re-entrant firing never skew the fault counters
  // but do land in the journal.
  fi.Note("annotation");
  EXPECT_EQ(fi.journal().size(), 5u);
  EXPECT_EQ(fi.fired(), 4u);
}


TEST(MetricIdTest, RegistrationIsIdempotentAndSurvivesClear) {
  Stats s;
  MetricId a = s.RegisterCounter("ops");
  MetricId a2 = s.RegisterCounter("ops");
  EXPECT_TRUE(a.valid());
  s.Incr(a, 2);
  s.Incr(a2, 3);
  EXPECT_EQ(s.Counter(a), 5);
  EXPECT_EQ(s.Counter("ops"), 5);
  // Clear zeroes values but keeps registrations: cached handles stay valid.
  s.Clear();
  EXPECT_EQ(s.Counter(a), 0);
  s.Incr(a);
  EXPECT_EQ(s.Counter("ops"), 1);
  // Default-constructed (invalid) handles are ignored, not fatal.
  MetricId invalid;
  EXPECT_FALSE(invalid.valid());
  s.Incr(invalid);
  EXPECT_EQ(s.Counter(invalid), 0);
}

TEST(MetricIdTest, HandleAndStringPathsShareStorage) {
  Stats s;
  s.Incr(s.RegisterCounter("x"), 7);
  MetricId x = s.RegisterCounter("x");
  s.Incr(x, 1);
  EXPECT_EQ(s.Counter("x"), 8);
  MetricId h = s.RegisterHistogram("lat");
  s.Record(h, 5);
  s.Record(s.RegisterHistogram("lat"), 15);
  ASSERT_NE(s.FindHistogram("lat"), nullptr);
  EXPECT_EQ(s.FindHistogram("lat")->count(), 2u);
  EXPECT_EQ(&s.GetHistogram(h), s.FindHistogram("lat"));
}

TEST(HistogramTest, EmptyEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), 0);
  EXPECT_EQ(h.Percentile(-5), 0);
  EXPECT_EQ(h.Percentile(200), 0);
  h.Add(42);
  EXPECT_EQ(h.Percentile(0), 42);
  EXPECT_EQ(h.Percentile(50), 42);
  EXPECT_EQ(h.Percentile(100), 42);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(HistogramTest, LogBucketsExactBelow128) {
  Histogram h;
  for (int v = 0; v < 128; ++v) h.Add(v);
  // With 64 sub-buckets per octave every value below 128 maps to its own
  // bucket, so percentiles are exact.
  EXPECT_EQ(h.Percentile(50), 63);  // rank floor(0.5 * 127) = 63
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 127);
}

TEST(HistogramTest, LargeValuesApproximateWithinBucketWidth) {
  Histogram h;
  const int64_t v = 1'000'000;
  h.Add(v);
  h.Add(v);
  h.Add(3 * v);
  // Percentiles land in the right bucket; midpoints are clamped to the
  // observed [min, max], and relative error is bounded by 1/64 per octave.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), static_cast<double>(v),
              static_cast<double>(v) / 64.0);
  EXPECT_EQ(h.Percentile(100), 3 * v);
  EXPECT_EQ(h.Min(), v);
  EXPECT_EQ(h.Max(), 3 * v);
  EXPECT_EQ(h.Sum(), 5 * v);
  Histogram neg;
  neg.Add(-17);  // negative samples clamp into the first bucket
  EXPECT_EQ(neg.Min(), -17);
  EXPECT_EQ(neg.count(), 1u);
}

TEST(StatsTest, ToStringShowsPercentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.Record(s.RegisterHistogram("lat"), i);
  std::string dump = s.ToString();
  EXPECT_NE(dump.find("p50"), std::string::npos);
  EXPECT_NE(dump.find("p95"), std::string::npos);
  EXPECT_NE(dump.find("p99"), std::string::npos);
  // Empty histograms are omitted rather than printed as garbage.
  s.RegisterHistogram("never_recorded");
  dump = s.ToString();
  EXPECT_EQ(dump.find("never_recorded"), std::string::npos);
}

TEST(TraceLogTest, RecordAndDumpPerTransaction) {
  TraceLog log;
  TraceEvent e;
  e.time = 5;
  e.transid = 42;
  e.span = log.NewSpan(1);
  e.kind = TraceEventKind::kMsgSend;
  e.node = 1;
  e.a = 7;
  log.Record(e);
  e.time = 9;
  e.kind = TraceEventKind::kMsgDeliver;
  e.node = 2;
  log.Record(e);
  TraceEvent other;
  other.transid = 99;
  other.kind = TraceEventKind::kTxnState;
  log.Record(other);
  EXPECT_EQ(log.size(), 3u);
  auto events = log.Events(42);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kMsgSend);
  EXPECT_EQ(events[1].kind, TraceEventKind::kMsgDeliver);
  std::string dump = log.Dump(42);
  EXPECT_NE(dump.find("transid=42"), std::string::npos);
  EXPECT_NE(dump.find("msg.send"), std::string::npos);
  EXPECT_NE(dump.find("msg.deliver"), std::string::npos);
  EXPECT_EQ(dump.find("txn.state"), std::string::npos);
}

TEST(TraceLogTest, KeepsEveryEventUntilCleared) {
  // Well past the 64 Ki events per shard a bounded ring would have kept.
  constexpr uint32_t kEvents = (1 << 16) + 1000;
  TraceLog log;
  for (uint32_t i = 0; i < kEvents; ++i) {
    TraceEvent e;
    e.time = i;
    e.transid = 1 + i % 2;
    e.a = i;
    log.Record(e);
  }
  EXPECT_EQ(log.size(), kEvents);
  EXPECT_EQ(log.dropped(), 0u);
  const std::vector<TraceEvent> all = log.AllEvents();
  ASSERT_EQ(all.size(), kEvents);
  for (uint32_t i = 0; i < kEvents; ++i) ASSERT_EQ(all[i].a, i);
  EXPECT_EQ(log.Events(1).size(), kEvents / 2);
  EXPECT_EQ(log.Events(1).front().a, 0u);  // the oldest event survives
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.AllEvents().empty());
}

TEST(TraceLogTest, DisabledLogRecordsNothing) {
  // A fresh simulation's log is off: nothing records until a reader enables it.
  Simulation sim;
  EXPECT_FALSE(sim.GetTrace().enabled());
  TraceContext ctx{42, 1};
  sim.RecordTrace(TraceEventKind::kMsgSend, ctx, 1);
  EXPECT_EQ(sim.GetTrace().size(), 0u);
  sim.GetTrace().set_enabled(true);
  sim.RecordTrace(TraceEventKind::kMsgSend, ctx, 1);
  EXPECT_EQ(sim.GetTrace().size(), 1u);
  // Inactive contexts (transid 0) never record.
  sim.RecordTrace(TraceEventKind::kMsgSend, TraceContext{}, 1);
  EXPECT_EQ(sim.GetTrace().size(), 1u);
}

}  // namespace
}  // namespace encompass::sim
