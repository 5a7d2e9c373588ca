#include "trace_spans.h"

namespace perfbench {

using encompass::sim::TraceEvent;
using encompass::sim::TraceEventKind;

void TraceSpans::Drain(encompass::sim::TraceLog& log) {
  dropped_ += log.dropped();
  Consume(log.AllEvents());
  log.Clear();
}

void TraceSpans::Consume(const std::vector<TraceEvent>& events) {
  events_ += events.size();
  for (const TraceEvent& e : events) {
    const TxnNode key{e.transid, e.node};
    switch (e.kind) {
      case TraceEventKind::kMsgSend:
        if (e.b != e.node) in_flight_[e.span] = e.time;  // cross-node only
        break;
      case TraceEventKind::kMsgDeliver: {
        auto it = in_flight_.find(e.span);
        if (it != in_flight_.end()) {
          flight_us.Add(static_cast<double>(e.time - it->second));
          in_flight_.erase(it);
        }
        break;
      }
      case TraceEventKind::kPhase1Start:
        phase1_start_[key] = e.time;
        break;
      case TraceEventKind::kPhase1Done: {
        auto it = phase1_start_.find(key);
        if (it != phase1_start_.end()) {
          phase1_us.Add(static_cast<double>(e.time - it->second));
          phase1_start_.erase(it);
        }
        if (e.a == 1) phase1_done_[key] = e.time;  // all votes yes
        break;
      }
      case TraceEventKind::kCommitRecord: {
        auto it = phase1_done_.find(key);
        if (it != phase1_done_.end()) {
          commit_force_us.Add(static_cast<double>(e.time - it->second));
          phase1_done_.erase(it);
        }
        break;
      }
      case TraceEventKind::kPhase2Queued:
        phase2_queued_[TxnNode{e.transid, static_cast<uint16_t>(e.b)}] = e.time;
        break;
      case TraceEventKind::kPhase2Recv: {
        auto it = phase2_queued_.find(key);
        if (it != phase2_queued_.end()) {
          phase2_lag_us.Add(static_cast<double>(e.time - it->second));
          phase2_queued_.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace perfbench
