// Unit tests for the PDES building blocks: the (time, origin, seq) total
// order of EventQueue, cancellation across key kinds, and the per-node PRNG
// streams that make node-local randomness independent of global event
// interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "step_reference.h"

namespace encompass::sim {
namespace {

TEST(EventKeyTest, LexicographicOrder) {
  EXPECT_LT((EventKey{1, 5, 9}), (EventKey{2, 0, 0}));
  EXPECT_LT((EventKey{2, 0, 9}), (EventKey{2, 1, 0}));
  EXPECT_LT((EventKey{2, 1, 3}), (EventKey{2, 1, 4}));
  EXPECT_FALSE((EventKey{2, 1, 4}) < (EventKey{2, 1, 4}));
}

TEST(EventQueueTest, SameTimeEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    q.Schedule(100, [&fired, i]() { fired.push_back(i); });
  }
  while (!q.empty()) {
    SimTime when;
    q.PopNext(&when)();
    EXPECT_EQ(when, 100);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// The regression the (time, origin, seq) order pins down: however keyed
// events are *inserted* into the heap, they fire in key order — so the
// firing order is a function of the keys alone, not of heap internals or
// insertion interleaving.
TEST(EventQueueTest, ShuffledSameTimeInsertionsFireInKeyOrder) {
  std::vector<EventKey> keys;
  for (uint16_t origin = 1; origin <= 4; ++origin) {
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      keys.push_back(EventKey{500, origin, seq});  // all at the same time
    }
  }
  std::vector<std::string> reference;
  for (int trial = 0; trial < 20; ++trial) {
    std::mt19937 shuffler(trial);  // a different insertion order per trial
    std::vector<EventKey> shuffled = keys;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffler);

    EventQueue q;
    std::vector<std::string> fired;
    for (const EventKey& k : shuffled) {
      q.ScheduleKeyed(k, [&fired, k]() {
        fired.push_back(std::to_string(k.origin) + ":" + std::to_string(k.seq));
      });
    }
    while (!q.empty()) {
      EventKey key;
      q.PopNext(&key)();
    }
    if (trial == 0) {
      reference = fired;
      // Sanity: key order is (origin, seq) at equal time.
      EXPECT_EQ(fired.front(), "1:1");
      EXPECT_EQ(fired.back(), "4:5");
    } else {
      EXPECT_EQ(fired, reference) << "insertion order leaked into firing order";
    }
  }
}

TEST(EventQueueTest, GlobalOriginSortsFirstAtEqualTime) {
  EventQueue q;
  std::vector<int> fired;
  q.ScheduleKeyed(EventKey{100, 3, 1}, [&fired]() { fired.push_back(3); });
  q.ScheduleKeyed(EventKey{100, 0, 99}, [&fired]() { fired.push_back(0); });
  q.ScheduleKeyed(EventKey{100, 1, 7}, [&fired]() { fired.push_back(1); });
  while (!q.empty()) {
    EventKey key;
    q.PopNext(&key)();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3}));
}

TEST(EventQueueTest, CancelOnlyAffectsLocalEvents) {
  EventQueue q(2);
  std::vector<int> fired;
  EventId a = q.Schedule(10, [&fired]() { fired.push_back(1); });
  // A keyed event whose foreign seq collides with the local id being
  // cancelled must not be swallowed by the tombstone.
  q.ScheduleKeyed(EventKey{10, 7, a}, [&fired]() { fired.push_back(2); });
  q.Cancel(a);
  q.Cancel(a);      // double-cancel: no-op
  q.Cancel(12345);  // unknown: no-op
  EXPECT_EQ(q.size(), 1u);
  EventKey key;
  q.PopNext(&key)();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(key.origin, 7);
}

TEST(EventQueueTest, NextKeyReportsEarliest) {
  EventQueue q(1);
  EXPECT_EQ(q.NextKey(), nullptr);
  EXPECT_EQ(q.NextTime(), kNoDeadline);
  q.Schedule(300, []() {});
  q.ScheduleKeyed(EventKey{200, 5, 1}, []() {});
  ASSERT_NE(q.NextKey(), nullptr);
  EXPECT_EQ(q.NextKey()->time, 200);
  EXPECT_EQ(q.NextKey()->origin, 5);
  EXPECT_EQ(q.NextTime(), 200);
}

// --- EventFn ---------------------------------------------------------------

TEST(EventFnTest, InvokesInlineAndHeapCallables) {
  int hits = 0;
  EventFn small([&hits]() { ++hits; });  // fits inline storage
  EXPECT_TRUE(static_cast<bool>(small));
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    uint64_t payload[12];  // larger than EventFn::kInlineCapacity
    int* counter;
    void operator()() { *counter += static_cast<int>(payload[11]); }
  };
  Big big{};
  big.payload[11] = 5;
  big.counter = &hits;
  EventFn large(big);  // heap fallback
  large();
  EXPECT_EQ(hits, 6);
}

TEST(EventFnTest, MoveTransfersOwnershipAndEmptiesSource) {
  int hits = 0;
  EventFn a([&hits]() { ++hits; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  EventFn c;
  EXPECT_FALSE(static_cast<bool>(c));
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* ctor;
    int* dtor;
    Probe(int* c, int* d) : ctor(c), dtor(d) { ++*ctor; }
    Probe(const Probe& o) : ctor(o.ctor), dtor(o.dtor) { ++*ctor; }
    Probe(Probe&& o) noexcept : ctor(o.ctor), dtor(o.dtor) { ++*ctor; }
    ~Probe() { ++*dtor; }
  };
  int ctor = 0, dtor = 0;
  {
    Probe p(&ctor, &dtor);
    EventFn f([p]() {});
    EventFn g(std::move(f));  // relocation must destroy the source residue
    g();                      // invoking must not destroy the capture
    EXPECT_TRUE(static_cast<bool>(g));
  }
  EXPECT_EQ(ctor, dtor);  // every constructed capture was destroyed once
  EXPECT_GT(ctor, 0);
}

// --- per-node PRNG streams -------------------------------------------------

TEST(NodeRngTest, StreamsAreDistinctAndSeedStable) {
  Simulation sim_a(42);
  Simulation sim_b(42);
  Simulation sim_c(43);
  // Same seed -> identical per-node sequences; different nodes or different
  // seeds -> different sequences.
  std::vector<uint64_t> n1a, n1b, n2a, n1c;
  for (int i = 0; i < 16; ++i) n1a.push_back(sim_a.RngFor(1).Next());
  for (int i = 0; i < 16; ++i) n1b.push_back(sim_b.RngFor(1).Next());
  for (int i = 0; i < 16; ++i) n2a.push_back(sim_a.RngFor(2).Next());
  for (int i = 0; i < 16; ++i) n1c.push_back(sim_c.RngFor(1).Next());
  EXPECT_EQ(n1a, n1b);
  EXPECT_NE(n1a, n2a);
  EXPECT_NE(n1b, n1c);
  // The node streams are also distinct from the global loop's stream.
  std::vector<uint64_t> global;
  for (int i = 0; i < 16; ++i) global.push_back(sim_b.RngFor(0).Next());
  EXPECT_NE(global, n1a);
}

TEST(NodeRngTest, NodeStreamUnaffectedByOtherNodesDraws) {
  // Draw node 1's values with and without interleaved draws on node 2: the
  // node-1 sequence must be identical. This is the property that lets
  // parallel execution reorder node events without changing any node's
  // randomness.
  Simulation plain(7);
  std::vector<uint64_t> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(plain.RngFor(1).Next());

  Simulation interleaved(7);
  std::vector<uint64_t> got;
  for (int i = 0; i < 16; ++i) {
    interleaved.RngFor(2).Next();
    got.push_back(interleaved.RngFor(1).Next());
    interleaved.RngFor(3).Next();
  }
  EXPECT_EQ(got, expected);
}

// --- round loop vs the Step() reference -----------------------------------

namespace engine_test {

using testing::AdvanceTo;
using testing::kStepReference;

// Declares a `latency` link between every pair of nodes 1..`nodes`: a
// uniform lookahead, stated pair by pair.
void LinkFullMesh(Simulation& sim, uint16_t nodes, SimDuration latency) {
  for (uint16_t a = 1; a <= nodes; ++a) {
    for (uint16_t b = a + 1; b <= nodes; ++b) {
      sim.NoteLinkLatency(a, b, latency);
    }
  }
}

// The coordinator rounds a run took (sim.rounds, published on demand).
int64_t Rounds(Simulation& sim) {
  sim.PublishEngineMetrics();
  return sim.GetStats().Counter("sim.rounds");
}

// A micro-workload exercising everything the round loop must agree with the
// Step() reference on: per-node timer chains (AfterOn), ring traffic with
// lookahead-respecting delays (PostToNode), per-node PRNG draws, and a
// cancellation. Each node appends to its own log (only that node's events
// touch it, so logging is race-free on the worker pool); the per-node logs
// must be identical at every thread count. `rounds`, if set, receives the
// run's coordinator round count.
std::vector<std::string> RunMicroWorkload(int workers,
                                          int64_t* rounds = nullptr) {
  constexpr int kNodes = 4;
  Simulation sim(/*seed=*/99, workers);
  for (int n = 1; n <= kNodes; ++n) sim.EnsureNode(static_cast<uint16_t>(n));
  LinkFullMesh(sim, kNodes, Millis(2));

  std::vector<std::vector<std::string>> logs(kNodes + 1);
  struct Chain {
    static void Step(Simulation* sim, std::vector<std::vector<std::string>>* logs,
                     uint16_t node, int steps_left) {
      uint64_t draw = sim->RngFor(node).Uniform(100);
      (*logs)[node].push_back("t=" + std::to_string(sim->Now()) + " step d=" +
                              std::to_string(draw));
      if (steps_left % 3 == 0) {
        auto dst = static_cast<uint16_t>(node % 4 + 1);
        sim->PostToNode(dst, Millis(2) + Micros(node * 11),
                        [sim, logs, dst]() {
                          (*logs)[dst].push_back(
                              "t=" + std::to_string(sim->Now()) + " recv");
                        });
      }
      if (steps_left > 1) {
        sim->AfterOn(node, Micros(150 + draw),
                     [sim, logs, node, steps_left]() {
                       Step(sim, logs, node, steps_left - 1);
                     });
      }
    }
  };
  for (int n = 1; n <= kNodes; ++n) {
    sim.AfterOn(static_cast<uint16_t>(n), Micros(20 + n * 5),
                [&sim, &logs, n]() {
                  Chain::Step(&sim, &logs, static_cast<uint16_t>(n), 12);
                });
  }
  // A timer armed then cancelled from the owning node must never fire, at
  // any thread count.
  for (int n = 1; n <= kNodes; ++n) {
    sim.AfterOn(static_cast<uint16_t>(n), Micros(30),
                [&sim, &logs, n]() {
                  EventId id = sim.AfterOn(
                      static_cast<uint16_t>(n), Millis(1),
                      [&logs, n]() { logs[n].push_back("CANCELLED?"); });
                  sim.Cancel(id);
                });
  }
  AdvanceTo(sim, workers, Millis(30));
  if (rounds != nullptr) *rounds = Rounds(sim);
  std::vector<std::string> flat;
  for (int n = 1; n <= kNodes; ++n) {
    flat.push_back("--- node " + std::to_string(n));
    for (const auto& line : logs[n]) flat.push_back(line);
  }
  return flat;
}

TEST(EngineTest, AllEnginesAgreeOnMicroWorkload) {
  const std::vector<std::string> reference = RunMicroWorkload(kStepReference);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(std::count(reference.begin(), reference.end(), "CANCELLED?"), 0);
  for (int workers : {1, 2, 4, 8}) {
    EXPECT_EQ(RunMicroWorkload(workers), reference) << "workers=" << workers;
  }
}

// A cross-node post and a local timer that land on the same microsecond
// fire in (time, origin, seq) order — the post from node 1 first — even
// though the timer was scheduled earlier. A default-constructed Simulation
// runs the same round loop as every other thread count.
TEST(EngineTest, DefaultSimulationBreaksSameTimeTiesByKey) {
  Simulation sim;
  sim.EnsureNode(1);
  sim.EnsureNode(2);
  sim.NoteLinkLatency(1, 2, Millis(1));
  std::vector<std::string> fired;
  sim.AfterOn(2, Millis(2), [&fired]() { fired.push_back("timer on 2"); });
  sim.AfterOn(1, Millis(1), [&sim, &fired]() {
    sim.PostToNode(2, Millis(1), [&fired]() { fired.push_back("post 1->2"); });
  });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<std::string>{"post 1->2", "timer on 2"}));
}

TEST(EngineTest, RunUntilAdvancesClockWithoutEvents) {
  for (int workers : {kStepReference, 1, 2}) {
    Simulation sim(1, workers);
    sim.EnsureNode(1);
    sim.EnsureNode(2);
    sim.NoteLinkLatency(1, 2, Millis(5));
    AdvanceTo(sim, workers, Millis(10));
    EXPECT_EQ(sim.Now(), Millis(10)) << "workers=" << workers;
    bool fired = false;
    sim.AfterOn(1, Micros(1), [&fired]() { fired = true; });
    AdvanceTo(sim, workers, sim.Now() + Micros(5));
    EXPECT_TRUE(fired) << "workers=" << workers;
    EXPECT_EQ(sim.Now(), Millis(10) + Micros(5)) << "workers=" << workers;
  }
}

TEST(EngineTest, ExecutedEventsCountsAcrossLoops) {
  for (int workers : {kStepReference, 1, 4}) {
    Simulation sim(1, workers);
    for (uint16_t n = 1; n <= 3; ++n) {
      sim.EnsureNode(n);
      sim.AfterOn(n, Micros(n), []() {});
      sim.AfterOn(n, Micros(100 + n), []() {});
    }
    LinkFullMesh(sim, 3, Millis(5));
    testing::Drain(sim, workers);
    EXPECT_EQ(sim.ExecutedEvents(), 6u) << "workers=" << workers;
    EXPECT_TRUE(sim.Idle());
    EXPECT_EQ(sim.PendingEvents(), 0u);
  }
}

// A two-tier topology exercising per-link horizons: nodes 1-2 joined by a
// fast link trade frequent traffic, nodes 3-4 hang off 20ms WAN links and
// run their own dense chains. Per-pair lookahead lets 3 and 4 batch far
// ahead of the 1-2 pair; the logs must still match the Step() reference.
std::vector<std::string> RunHeteroWorkload(int workers,
                                           int64_t* rounds = nullptr) {
  Simulation sim(/*seed=*/123, workers);
  for (uint16_t n = 1; n <= 4; ++n) sim.EnsureNode(n);
  sim.NoteLinkLatency(1, 2, Micros(250));
  sim.NoteLinkLatency(2, 3, Millis(20));
  sim.NoteLinkLatency(3, 4, Millis(20));

  std::vector<std::vector<std::string>> logs(5);
  struct Chain {
    static void Step(Simulation* sim, std::vector<std::vector<std::string>>* logs,
                     uint16_t node, int steps_left) {
      uint64_t draw = sim->RngFor(node).Uniform(100);
      (*logs)[node].push_back("t=" + std::to_string(sim->Now()) + " d=" +
                              std::to_string(draw));
      if (node <= 2) {  // fast pair: chatter across the 250us link
        auto peer = static_cast<uint16_t>(node == 1 ? 2 : 1);
        sim->PostToNode(peer, Micros(250 + draw), [sim, logs, peer]() {
          (*logs)[peer].push_back("t=" + std::to_string(sim->Now()) + " recv");
        });
      } else if (draw % 4 == 0) {  // WAN nodes: occasional 20ms+ posts
        auto peer = static_cast<uint16_t>(node == 3 ? 4 : 3);
        sim->PostToNode(peer, Millis(20) + Micros(draw), [sim, logs, peer]() {
          (*logs)[peer].push_back("t=" + std::to_string(sim->Now()) + " recv");
        });
      }
      if (steps_left > 1) {
        const SimDuration gap =
            node <= 2 ? Millis(1) + Micros(draw) : Micros(80 + draw);
        sim->AfterOn(node, gap, [sim, logs, node, steps_left]() {
          Step(sim, logs, node, steps_left - 1);
        });
      }
    }
  };
  for (uint16_t n = 1; n <= 4; ++n) {
    sim.AfterOn(n, Micros(10 + n * 3), [&sim, &logs, n]() {
      Chain::Step(&sim, &logs, n, n <= 2 ? 10 : 60);
    });
  }
  AdvanceTo(sim, workers, Millis(25));
  if (rounds != nullptr) *rounds = Rounds(sim);
  std::vector<std::string> flat;
  for (int n = 1; n <= 4; ++n) {
    flat.push_back("--- node " + std::to_string(n));
    for (const auto& line : logs[n]) flat.push_back(line);
  }
  return flat;
}

TEST(EngineTest, PerLinkLookaheadPreservesIdentityOnHeteroTopology) {
  const std::vector<std::string> reference = RunHeteroWorkload(kStepReference);
  ASSERT_GT(reference.size(), 8u);
  for (int workers : {1, 2, 4, 8}) {
    EXPECT_EQ(RunHeteroWorkload(workers), reference) << "workers=" << workers;
  }
}

// Identity with the Step() reference does not show how events were batched:
// a horizon that shrank to the next event would still fire the same history.
// These round counts pin the horizons the lookahead table grants: the micro
// workload's full 2ms mesh takes the 2 rounds a uniform 2ms lookahead took,
// and the hetero topology's per-pair links their 20.
TEST(EngineTest, RoundCountsPinLookaheadHorizons) {
  for (int workers : {1, 4}) {
    int64_t micro = 0;
    int64_t hetero = 0;
    RunMicroWorkload(workers, &micro);
    RunHeteroWorkload(workers, &hetero);
    EXPECT_EQ(micro, 2) << "workers=" << workers;
    EXPECT_EQ(hetero, 20) << "workers=" << workers;
  }
}

}  // namespace engine_test

}  // namespace
}  // namespace encompass::sim
