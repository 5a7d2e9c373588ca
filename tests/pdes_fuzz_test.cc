// Randomized fuzz of the round loop against the Step() reference: random
// topologies (spanning tree + extra edges), random per-link latencies
// spanning LAN-to-WAN scales, and mixed dense/sparse per-node traffic. Every
// trial runs the same seeded workload event by event through Step() and
// byte-compares the full per-node logs against the round loop at {1, 2, 4, 8}
// threads.
// This is the test that hunts horizon bugs: a per-pair lookahead that is one
// microsecond too generous shows up as a reordered or missing log line.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "step_reference.h"

namespace encompass::sim {
namespace {

struct LinkSpec {
  uint16_t a;
  uint16_t b;
  SimDuration latency;
};

struct Plan {
  int nodes = 0;
  std::vector<LinkSpec> links;
  std::vector<std::vector<uint16_t>> neighbors;  // by node id
  std::vector<SimDuration> spacing;              // per-node chain cadence
};

Plan MakePlan(uint32_t trial) {
  std::mt19937 rng(0xFC0A + trial);
  Plan p;
  p.nodes = 3 + static_cast<int>(rng() % 4);  // 3..6 nodes
  const SimDuration kLatencies[] = {Micros(300), Millis(1), Millis(5),
                                    Millis(40)};
  p.neighbors.resize(static_cast<size_t>(p.nodes) + 1);
  auto add_link = [&](uint16_t a, uint16_t b) {
    for (uint16_t n : p.neighbors[a]) {
      if (n == b) return;  // already linked
    }
    p.links.push_back(LinkSpec{a, b, kLatencies[rng() % 4]});
    p.neighbors[a].push_back(b);
    p.neighbors[b].push_back(a);
  };
  // Random spanning tree keeps every node reachable, then extra chords.
  for (uint16_t n = 2; n <= p.nodes; ++n) {
    add_link(n, static_cast<uint16_t>(1 + rng() % (n - 1)));
  }
  const int extra = static_cast<int>(rng() % 3);
  for (int e = 0; e < extra; ++e) {
    auto a = static_cast<uint16_t>(1 + rng() % p.nodes);
    auto b = static_cast<uint16_t>(1 + rng() % p.nodes);
    if (a != b) add_link(a, b);
  }
  // Mix of dense and sparse nodes: heterogeneous event rates are exactly
  // where per-pair horizons differ most from the old global-min ones.
  const SimDuration kSpacing[] = {Micros(200), Micros(700), Millis(2),
                                  Millis(9)};
  p.spacing.resize(static_cast<size_t>(p.nodes) + 1, 0);
  for (int n = 1; n <= p.nodes; ++n) p.spacing[n] = kSpacing[rng() % 4];
  return p;
}

void ChainStep(Simulation* sim, const Plan* plan,
               std::vector<std::vector<std::string>>* logs, uint16_t node,
               int steps_left) {
  Random& rng = sim->RngFor(node);
  const uint64_t draw = rng.Uniform(1000);
  (*logs)[node].push_back("t=" + std::to_string(sim->Now()) +
                          " d=" + std::to_string(draw));
  if (draw % 3 == 0 && !(*plan).neighbors[node].empty()) {
    // Post over a randomly chosen incident link; the delay is that link's
    // latency plus jitter, which is always >= the pair's lookahead (the
    // least-path bound can only be shorter than the direct link).
    const auto& nbrs = plan->neighbors[node];
    const uint16_t dst = nbrs[rng.Uniform(static_cast<uint32_t>(nbrs.size()))];
    SimDuration lat = 0;
    for (const LinkSpec& l : plan->links) {
      if ((l.a == node && l.b == dst) || (l.b == node && l.a == dst)) {
        lat = l.latency;
        break;
      }
    }
    sim->PostToNode(dst, lat + Micros(rng.Uniform(40)), [sim, logs, dst]() {
      (*logs)[dst].push_back("t=" + std::to_string(sim->Now()) + " recv");
    });
  }
  if (draw % 7 == 0) {
    // Arm-and-cancel from the owning node: must never fire.
    EventId id = sim->AfterOn(node, Millis(3), [logs, node]() {
      (*logs)[node].push_back("CANCELLED-FIRED");
    });
    sim->Cancel(id);
  }
  if (steps_left > 1) {
    const SimDuration gap = plan->spacing[node] + Micros(rng.Uniform(50));
    sim->AfterOn(node, gap, [sim, plan, logs, node, steps_left]() {
      ChainStep(sim, plan, logs, node, steps_left - 1);
    });
  }
}

std::vector<std::string> RunPlan(const Plan& plan, uint32_t trial,
                                 int workers) {
  Simulation sim(/*seed=*/1000 + trial, workers);
  for (int n = 1; n <= plan.nodes; ++n) {
    sim.EnsureNode(static_cast<uint16_t>(n));
  }
  for (const LinkSpec& l : plan.links) {
    sim.NoteLinkLatency(l.a, l.b, l.latency);
  }
  std::vector<std::vector<std::string>> logs(static_cast<size_t>(plan.nodes) +
                                             1);
  for (uint16_t n = 1; n <= plan.nodes; ++n) {
    for (int c = 0; c < 2; ++c) {
      sim.AfterOn(n, Micros(15 + 11 * c), [&sim, &plan, &logs, n]() {
        ChainStep(&sim, &plan, &logs, n, 64);
      });
    }
  }
  testing::AdvanceTo(sim, workers, Millis(150));
  std::vector<std::string> flat;
  for (int n = 1; n <= plan.nodes; ++n) {
    flat.push_back("--- node " + std::to_string(n));
    for (const auto& line : logs[n]) flat.push_back(line);
  }
  return flat;
}

TEST(PdesFuzzTest, RandomTopologiesAgreeAcrossEngines) {
  for (uint32_t trial = 0; trial < 8; ++trial) {
    const Plan plan = MakePlan(trial);
    const std::vector<std::string> reference =
        RunPlan(plan, trial, testing::kStepReference);
    ASSERT_GT(reference.size(), static_cast<size_t>(plan.nodes))
        << "trial " << trial << " produced no events";
    for (const std::string& line : reference) {
      ASSERT_NE(line, "CANCELLED-FIRED") << "trial " << trial;
    }
    // The round loop must match byte-for-byte at every thread count,
    // including same-microsecond collisions of cross-node posts and local
    // events, which this fuzz deliberately provokes.
    for (int workers : {1, 2, 4, 8}) {
      EXPECT_EQ(RunPlan(plan, trial, workers), reference)
          << "trial " << trial << " workers=" << workers;
    }
  }
}

// The per-pair table must agree with hand-computed least-path latencies.
TEST(PdesFuzzTest, LookaheadTableMatchesLeastPaths) {
  Simulation sim(1, 1);
  for (uint16_t n = 1; n <= 5; ++n) sim.EnsureNode(n);
  sim.NoteLinkLatency(1, 2, Millis(1));
  sim.NoteLinkLatency(2, 3, Millis(2));
  sim.NoteLinkLatency(3, 4, Millis(50));
  EXPECT_EQ(sim.LookaheadBetween(1, 2), Millis(1));
  EXPECT_EQ(sim.LookaheadBetween(2, 1), Millis(1));     // symmetric
  EXPECT_EQ(sim.LookaheadBetween(1, 3), Millis(3));     // via node 2
  EXPECT_EQ(sim.LookaheadBetween(1, 4), Millis(53));    // chain sum
  EXPECT_EQ(sim.LookaheadBetween(1, 5), kNoDeadline);   // unlinked pair
  EXPECT_EQ(sim.LookaheadBetween(5, 3), kNoDeadline);
  // A later shortcut relaxes existing pairs.
  sim.NoteLinkLatency(1, 3, Millis(1));
  EXPECT_EQ(sim.LookaheadBetween(1, 3), Millis(1));
  EXPECT_EQ(sim.LookaheadBetween(1, 4), Millis(51));
  EXPECT_EQ(sim.LookaheadBetween(2, 3), Millis(2));     // direct still best
}

}  // namespace
}  // namespace encompass::sim
