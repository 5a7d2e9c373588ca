// Wall-clock check of the Stats hot path: interned MetricId handles (a bounds
// check + vector index) against the legacy string-keyed interface (hash +
// string compare on every call). Every per-message counter in the simulator
// sits on this path, so the handle/string ratio bounds how much bookkeeping
// the refactor removed from the per-event cost.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "sim/stats.h"

namespace encompass::bench {
namespace {

// A realistic registry: the hot counter lives among many others, as in a
// full deployment, so the string path pays a representative hash-map probe.
sim::MetricId PopulateStats(sim::Stats* stats) {
  for (int i = 0; i < 64; ++i) {
    stats->RegisterCounter("subsystem.counter_" + std::to_string(i));
    stats->RegisterHistogram("subsystem.hist_" + std::to_string(i));
  }
  return stats->RegisterCounter("tmf.transition.active->ending");
}

// Wall-clock ratio of the string path to the handle path over the same
// number of calls: the one number the refactor is judged on.
double TimedRatio(void (*slow)(sim::Stats&, int), void (*fast)(sim::Stats&, int)) {
  constexpr int kIters = 2'000'000;
  sim::Stats stats_slow, stats_fast;
  PopulateStats(&stats_slow);
  PopulateStats(&stats_fast);
  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();
  slow(stats_slow, kIters);
  auto t1 = clock::now();
  fast(stats_fast, kIters);
  auto t2 = clock::now();
  double slow_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  double fast_ns = std::chrono::duration<double, std::nano>(t2 - t1).count();
  return fast_ns > 0 ? slow_ns / fast_ns : 0;
}

// DoNotOptimize on the handle keeps the compiler from folding the whole
// loop into one addition, so both paths pay their real per-call cost.
void IncrStringLoop(sim::Stats& stats, int n) {
  for (int i = 0; i < n; ++i) stats.Incr("tmf.transition.active->ending");
}
void IncrHandleLoop(sim::Stats& stats, int n) {
  sim::MetricId id = stats.RegisterCounter("tmf.transition.active->ending");
  for (int i = 0; i < n; ++i) {
    DoNotOptimize(id);
    stats.Incr(id);
  }
}
void RecordStringLoop(sim::Stats& stats, int n) {
  for (int i = 0; i < n; ++i) stats.Record("subsystem.hist_0", i & 1023);
}
void RecordHandleLoop(sim::Stats& stats, int n) {
  sim::MetricId id = stats.RegisterHistogram("subsystem.hist_0");
  for (int i = 0; i < n; ++i) {
    DoNotOptimize(id);
    stats.Record(id, i & 1023);
  }
}

}  // namespace
}  // namespace encompass::bench

int main() {
  encompass::bench::InitReport("metrics");
  encompass::bench::ReportMeta(/*seed=*/0);
  printf("Stats hot path: interned MetricId handles vs string keys\n");
  double incr = encompass::bench::TimedRatio(encompass::bench::IncrStringLoop,
                                             encompass::bench::IncrHandleLoop);
  double record = encompass::bench::TimedRatio(
      encompass::bench::RecordStringLoop, encompass::bench::RecordHandleLoop);
  printf("Incr   speedup (string/handle): %.1fx\n", incr);
  printf("Record speedup (string/handle): %.1fx\n", record);
  encompass::bench::ReportValue("speedup_incr", incr);
  encompass::bench::ReportValue("speedup_record", record);
  encompass::bench::WriteReport();
  return 0;
}
