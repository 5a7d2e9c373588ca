// The benchmark's three workloads over the full TMF stack:
//
//   local-tp  one 8-CPU node, 16 transfer + 16 inquiry terminals over
//             100,000 accounts (~25x the volume cache), one event loop;
//   dist-2pc  four fully meshed nodes at 15 ms links, 16 transfer terminals
//             per node debiting home and crediting the next node (every txn
//             a 2-participant 2PC), 2,000 accounts per node, worker pool;
//   storm     RunChaosCampaign: four nodes x four clients, 12 faults with
//             >= 2 node crashes per 60 s window, atomicity oracle.
//
// Each run is closed-loop (no think time), seeded from RunOptions::seed,
// checks its correctness gates, and reports every metric by name.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;   ///< "local-tp", "dist-2pc" or "storm"
  uint64_t seed = 1;
  double seconds = 10;    ///< scales the simulated work (see workloads.cc)
  bool trace = false;     ///< traced run: per-layer metrics
  bool tiny = false;      ///< smoke-test sizes
};

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunResult {
  std::map<std::string, std::string> stamp;  ///< run context
  std::vector<Gate> gates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;

  bool correct() const;
};

/// Runs one workload. Unknown names yield a result with a failed gate.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
