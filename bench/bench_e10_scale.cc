// E10 — parallel simulation engine scaling. The PDES engine partitions the
// event schedule across per-node loops and runs them round by round under
// conservative synchronization (lookahead = least link latency per pair); at
// every thread count it fires exactly the events, in exactly the order, of the
// Step() reference (one globally least event at a time). This binary
// measures what the rounds and the parallelism buy: events/second on a
// synthetic multi-node workload at 2/4/8/16 nodes for the Step() reference,
// the round loop on one thread, and a worker pool sized to the host.
//
// The workload is engine-shaped, not application-shaped: each node runs
// several self-rescheduling timer chains (local work, ~50us apart, jittered
// from the node's own PRNG stream) and every 8th step posts a message one
// node around the ring with >= lookahead delay (cross-node work). Per-node
// accumulators are summed at the end into an order-independent checksum the
// bench asserts is identical across all runs, so the speedup table can never
// be quoted from runs that diverged.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/simulation.h"
#include "step_reference.h"

namespace encompass::bench {
namespace {

// Worker-pool size for the "parallel" rows: host threads capped at 8, or the
// ENCOMPASS_BENCH_WORKERS override (handy for exercising the round machinery
// and its sim.* metrics on hosts whose core count would collapse the pool
// to a single thread).
int PoolWorkers() {
  if (const char* env = std::getenv("ENCOMPASS_BENCH_WORKERS")) {
    const int v = std::atoi(env);
    if (v >= 1 && v <= 8) return v;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(hw, 8u));
}

using sim::testing::AdvanceTo;
using sim::testing::kStepReference;

constexpr int kChainsPerNode = 4;
constexpr uint64_t kPostEvery = 8;  // every 8th chain step posts to the ring

// One step of a chain pinned to `node`: local PRNG work, an occasional
// cross-node post, then re-arm. Free function so the recursion needs no
// heap-allocated self-reference.
void ChainStep(sim::Simulation* sim, std::vector<uint64_t>* acc, uint16_t node,
               int nodes, uint64_t step) {
  Random& rng = sim->RngFor(node);
  (*acc)[node] += rng.Uniform(1000);
  if (step % kPostEvery == 0) {
    // Ring neighbor; the receiving side only bumps a counter (it must not
    // draw from the destination's PRNG stream, which belongs to that node's
    // local chains). Delay is at least the lookahead, like any real link.
    auto dst = static_cast<uint16_t>(node % nodes + 1);
    sim->PostToNode(dst, Millis(15) + Micros(node * 7),
                    [acc, dst]() { (*acc)[dst] += 1; });
  }
  sim->AfterOn(node, Micros(40 + rng.Uniform(20)),
               [sim, acc, node, nodes, step]() {
                 ChainStep(sim, acc, node, nodes, step + 1);
               });
}

struct EngineRun {
  uint64_t executed = 0;
  uint64_t checksum = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  // Coordinator breakdown (round-loop runs only; from sim.* metrics).
  int64_t rounds = 0;
  int64_t ready_loops = 0;
  int64_t posts = 0;
  int64_t horizon_p50 = 0;
  int64_t horizon_p95 = 0;
};

// Publishes the engine's coordinator metrics into the run's Stats and copies
// them into `r`; with `prefix` set, also surfaces them in BENCH_e10 JSON.
void CaptureEngineMetrics(sim::Simulation& sim, EngineRun& r,
                          const std::string& prefix) {
  sim.PublishEngineMetrics();
  sim::Stats& stats = sim.GetStats();
  r.rounds = stats.Counter("sim.rounds");
  r.ready_loops = stats.Counter("sim.ready_loops");
  r.posts = stats.Counter("sim.inbox_posts");
  if (const sim::Histogram* h = stats.FindHistogram("sim.horizon_width")) {
    r.horizon_p50 = h->Percentile(50);
    r.horizon_p95 = h->Percentile(95);
  }
  if (!prefix.empty()) ReportSimStats(prefix, stats);
}

// The determinism contract, enforced before any number is reported: every
// run fired the Step() reference's (first run's) events, by executed count
// and checksum. On a divergence, prints it and flags the JSON.
bool SameHistory(const std::string& what,
                 std::initializer_list<const EngineRun*> runs) {
  const EngineRun& ref = **runs.begin();
  for (const EngineRun* r : runs) {
    if (r->executed == ref.executed && r->checksum == ref.checksum) continue;
    printf("ENGINE DIVERGENCE %s: %llu/%llu vs Step() reference %llu/%llu "
           "(executed/checksum)\n",
           what.c_str(), (unsigned long long)r->executed,
           (unsigned long long)r->checksum, (unsigned long long)ref.executed,
           (unsigned long long)ref.checksum);
    ReportValue("divergence", 1);
    return false;
  }
  return true;
}

EngineRun RunSynthetic(int nodes, int workers, SimDuration span,
                       const std::string& stats_prefix = "") {
  sim::Simulation sim(/*seed=*/42, workers);
  std::vector<uint64_t> acc(static_cast<size_t>(nodes) + 1, 0);
  for (int n = 1; n <= nodes; ++n) {
    sim.EnsureNode(static_cast<uint16_t>(n));
  }
  // No Network in this bench, so declare the links ourselves: 15ms between
  // every pair, the engine's conservative lookahead and the floor for every
  // post above.
  for (int a = 1; a <= nodes; ++a) {
    for (int b = a + 1; b <= nodes; ++b) {
      sim.NoteLinkLatency(static_cast<uint16_t>(a), static_cast<uint16_t>(b),
                          Millis(15));
    }
  }
  for (int n = 1; n <= nodes; ++n) {
    for (int c = 0; c < kChainsPerNode; ++c) {
      sim.AfterOn(static_cast<uint16_t>(n), Micros(10 + 13 * c),
                  [&sim, &acc, n, nodes]() {
                    ChainStep(&sim, &acc, static_cast<uint16_t>(n), nodes, 1);
                  });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  AdvanceTo(sim, workers, span);
  const auto t1 = std::chrono::steady_clock::now();
  EngineRun r;
  r.executed = sim.ExecutedEvents();
  for (int n = 1; n <= nodes; ++n) r.checksum += acc[static_cast<size_t>(n)];
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0) {
    r.events_per_sec = static_cast<double>(r.executed) / r.wall_s;
  }
  CaptureEngineMetrics(sim, r, stats_prefix);
  return r;
}

// --- E10.c: heterogeneous-latency topology ---------------------------------
//
// The topology the per-link lookahead exists for: nodes 1 and 2 are a
// "metro" pair joined by a 100us LAN link, exchanging sparse control
// heartbeats (~25ms apart); nodes 3..8 are WAN satellites, 50ms from
// everything, each running dense local chains (~50us apart). A single
// global-min lookahead would make the 100us LAN link everyone's lookahead
// and collapse every satellite's horizon to ~100us. With per-link lookahead
// the satellites' horizons are bounded by 50ms links instead, so rounds
// batch thousands of events. Every run — and the Step() reference — must
// produce the same executed count and checksum: the lookahead table changes
// batching, never history.

constexpr int kHeteroNodes = 8;     // 1,2 = metro pair; 3..8 = satellites
constexpr int kSatChains = 4;       // dense chains per satellite
constexpr uint64_t kSatPostEvery = 64;

void MetroStep(sim::Simulation* sim, std::vector<uint64_t>* acc,
               uint16_t node) {
  Random& rng = sim->RngFor(node);
  (*acc)[node] += rng.Uniform(1000);
  // Heartbeat to the other metro node over the 100us LAN link.
  auto peer = static_cast<uint16_t>(node == 1 ? 2 : 1);
  sim->PostToNode(peer, Micros(100 + node * 3),
                  [acc, peer]() { (*acc)[peer] += 1; });
  sim->AfterOn(node, Millis(20) + Micros(rng.Uniform(10000)),
               [sim, acc, node]() { MetroStep(sim, acc, node); });
}

void SatStep(sim::Simulation* sim, std::vector<uint64_t>* acc, uint16_t node,
             uint64_t step) {
  Random& rng = sim->RngFor(node);
  (*acc)[node] += rng.Uniform(1000);
  if (step % kSatPostEvery == 0) {
    // Ring around the satellites over the 50ms WAN links.
    auto dst = static_cast<uint16_t>(node == kHeteroNodes ? 3 : node + 1);
    sim->PostToNode(dst, Millis(50) + Micros(node * 7),
                    [acc, dst]() { (*acc)[dst] += 1; });
  }
  sim->AfterOn(node, Micros(40 + rng.Uniform(20)),
               [sim, acc, node, step]() { SatStep(sim, acc, node, step + 1); });
}

EngineRun RunHetero(int workers, SimDuration span,
                    const std::string& stats_prefix = "") {
  sim::Simulation sim(/*seed=*/4242, workers);
  for (int n = 1; n <= kHeteroNodes; ++n) {
    sim.EnsureNode(static_cast<uint16_t>(n));
  }
  // Declare the actual topology: the engine derives pairwise lookaheads.
  sim.NoteLinkLatency(1, 2, Micros(100));
  for (int s = 3; s <= kHeteroNodes; ++s) {
    for (int o = 1; o <= kHeteroNodes; ++o) {
      if (o != s) {
        sim.NoteLinkLatency(static_cast<uint16_t>(s), static_cast<uint16_t>(o),
                            Millis(50));
      }
    }
  }
  std::vector<uint64_t> acc(kHeteroNodes + 1, 0);
  for (uint16_t n = 1; n <= 2; ++n) {
    sim.AfterOn(n, Millis(1) + Micros(37 * n),
                [&sim, &acc, n]() { MetroStep(&sim, &acc, n); });
  }
  for (uint16_t n = 3; n <= kHeteroNodes; ++n) {
    for (int c = 0; c < kSatChains; ++c) {
      sim.AfterOn(n, Micros(10 + 13 * c),
                  [&sim, &acc, n]() { SatStep(&sim, &acc, n, 1); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  AdvanceTo(sim, workers, span);
  const auto t1 = std::chrono::steady_clock::now();
  EngineRun r;
  r.executed = sim.ExecutedEvents();
  for (int n = 1; n <= kHeteroNodes; ++n) r.checksum += acc[static_cast<size_t>(n)];
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s > 0) {
    r.events_per_sec = static_cast<double>(r.executed) / r.wall_s;
  }
  CaptureEngineMetrics(sim, r, stats_prefix);
  return r;
}

void TableHetero() {
  const int pool = PoolWorkers();
  const SimDuration span = Seconds(1);
  Header("E10.c heterogeneous topology: per-link lookahead "
         "(metro pair @100us + 6 WAN satellites @50ms, seed 4242, 1 sim-sec)");
  EngineRun step = RunHetero(kStepReference, span);
  EngineRun single = RunHetero(1, span, "hetero.single");
  EngineRun perlink = RunHetero(pool, span, "hetero.perlink");
  if (!SameHistory("on hetero topology", {&step, &single, &perlink})) {
    return;
  }
  printf("%22s %14s %9s %12s %12s %14s\n", "engine", "events/s", "rounds",
         "ready/round", "horizon p50", "horizon p95");
  printf("%22s %14.0f %9s %12s %12s %14s\n", "Step() reference",
         step.events_per_sec, "-", "-", "-", "-");
  auto row = [](const char* name, const EngineRun& r) {
    printf("%22s %14.0f %9lld %12.2f %10lldus %12lldus\n", name,
           r.events_per_sec, (long long)r.rounds,
           r.rounds > 0 ? static_cast<double>(r.ready_loops) /
                              static_cast<double>(r.rounds)
                        : 0.0,
           (long long)r.horizon_p50, (long long)r.horizon_p95);
  };
  row("single (workers=1)", single);
  row("per-link lookahead", perlink);
  ReportValue("hetero.events", static_cast<double>(perlink.executed));
  ReportValue("hetero.step_eps", step.events_per_sec);
  ReportValue("hetero.single_eps", single.events_per_sec);
  ReportValue("hetero.parallel_eps", perlink.events_per_sec);
}

void TableScaling() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int pool = PoolWorkers();
  Header("E10.a events/second by node count and engine (seed 42, 1 sim-sec)");
  printf("host threads: %u (worker pool: %d)\n", hw, pool);
  printf("%6s %14s %14s %14s %9s\n", "nodes", "step eps", "single eps",
         "parallel eps", "speedup");
  for (int nodes : {2, 4, 8, 16}) {
    const SimDuration span = Seconds(1);
    EngineRun step = RunSynthetic(nodes, kStepReference, span);
    EngineRun single = RunSynthetic(nodes, 1, span);
    // The 8-node parallel run surfaces its coordinator metrics in the JSON.
    EngineRun par =
        RunSynthetic(nodes, pool, span, nodes == 8 ? "nodes8.par" : "");
    if (!SameHistory("at " + std::to_string(nodes) + " nodes",
                     {&step, &single, &par})) {
      continue;
    }
    // Against the Step() reference; the one-thread round loop's column
    // shows how much of the gain round batching alone already gives.
    const double speedup =
        step.events_per_sec > 0 ? par.events_per_sec / step.events_per_sec : 0;
    printf("%6d %14.0f %14.0f %14.0f %8.2fx\n", nodes, step.events_per_sec,
           single.events_per_sec, par.events_per_sec, speedup);
    const std::string k = "nodes" + std::to_string(nodes);
    ReportValue(k + ".events", static_cast<double>(par.executed));
    ReportValue(k + ".step_eps", step.events_per_sec);
    ReportValue(k + ".single_eps", single.events_per_sec);
    ReportValue(k + ".parallel_eps", par.events_per_sec);
    ReportValue(k + ".speedup", speedup);
  }
  ReportValue("hw_threads", static_cast<double>(hw));
  ReportValue("pool_workers", static_cast<double>(pool));
  // Speedup claims are only meaningful with real cores to run the pool on;
  // CI gates on nodes8.speedup >= 2 only when hw_limited is 0.
  ReportValue("hw_limited", hw < 4 ? 1 : 0);
}

void TableWorkerSweep() {
  Header("E10.b 8 nodes: events/second by worker count");
  printf("%9s %14s\n", "workers", "events/s");
  for (int workers : {1, 2, 4, 8}) {
    EngineRun r = RunSynthetic(8, workers, Seconds(1));
    printf("%9d %14.0f\n", workers, r.events_per_sec);
    ReportValue("sweep.workers" + std::to_string(workers) + ".eps",
                r.events_per_sec);
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("e10_scale");
  encompass::bench::ReportMeta(/*seed=*/42);
  printf("E10: conservative-PDES engine scaling — per-node event loops on a "
         "worker pool\n");
  encompass::bench::TableScaling();
  encompass::bench::TableWorkerSweep();
  encompass::bench::TableHetero();
  encompass::bench::WriteReport();
  return 0;
}
