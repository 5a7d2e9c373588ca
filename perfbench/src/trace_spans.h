// TraceSpans: turns the simulator's causal TraceLog into per-transaction
// layer spans. The log is drained in chunks (one per simulated slice) so no
// shard's 65,536-event ring ever wraps; spans that straddle a chunk boundary
// are matched across chunks.

#ifndef PERFBENCH_TRACE_SPANS_H_
#define PERFBENCH_TRACE_SPANS_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "metrics.h"
#include "sim/simulation.h"

namespace perfbench {

class TraceSpans {
 public:
  /// Consumes and clears every event retained in `log`; adds the ring's
  /// overwritten-event count to dropped().
  void Drain(encompass::sim::TraceLog& log);
  /// Consumes events in canonical order (exposed for tests).
  void Consume(const std::vector<encompass::sim::TraceEvent>& events);

  uint64_t events() const { return events_; }
  uint64_t dropped() const { return dropped_; }

  Samples phase1_us;       ///< Phase1Start -> Phase1Done, per (txn, node)
  Samples commit_force_us; ///< Phase1Done -> CommitRecord (MAT force)
  Samples phase2_lag_us;   ///< Phase2Queued -> Phase2Recv at the child
  Samples flight_us;       ///< cross-node MsgSend -> MsgDeliver

 private:
  using TxnNode = std::pair<uint64_t, uint16_t>;
  std::map<TxnNode, int64_t> phase1_start_, phase1_done_, phase2_queued_;
  std::unordered_map<uint32_t, int64_t> in_flight_;  // by message span
  uint64_t events_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SPANS_H_
