#include "sim/trace.h"

#include <algorithm>
#include <sstream>

namespace encompass::sim {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kMsgSend:
      return "msg.send";
    case TraceEventKind::kMsgDeliver:
      return "msg.deliver";
    case TraceEventKind::kTxnState:
      return "txn.state";
    case TraceEventKind::kPhase1Start:
      return "phase1.start";
    case TraceEventKind::kPhase1Done:
      return "phase1.done";
    case TraceEventKind::kCommitRecord:
      return "commit.record";
    case TraceEventKind::kPhase2Queued:
      return "phase2.queued";
    case TraceEventKind::kPhase2Recv:
      return "phase2.recv";
    case TraceEventKind::kAbortStart:
      return "abort.start";
    case TraceEventKind::kAbortDone:
      return "abort.done";
    case TraceEventKind::kLockAcquire:
      return "lock.acquire";
    case TraceEventKind::kLockRelease:
      return "lock.release";
    case TraceEventKind::kAuditForce:
      return "audit.force";
  }
  return "?";
}

std::string TraceEvent::ToString() const {
  std::ostringstream out;
  out << "t=" << time << " node=" << node << " span=" << span;
  if (parent != 0) out << "<-" << parent;
  out << " " << TraceEventKindName(kind) << " a=" << a << " b=" << b;
  return out.str();
}

void TraceLog::Record(const TraceEvent& e) {
  const internal::ExecContext* ec = internal::Exec();
  if (ec != nullptr && ec->trace == this) {
    shards_[ec->shard]->push_back(Rec{ec->key, e});
  } else {
    // Outside event execution: shard 0 with a time-only key, which sorts
    // before any event's records at the same instant.
    shards_[0]->push_back(Rec{EventKey{e.time, 0, 0}, e});
  }
}

size_t TraceLog::size() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->size();
  return n;
}

void TraceLog::Clear() {
  for (auto& s : shards_) s->clear();
  // span_counters_ deliberately keep counting: span ids stay unique per run.
}

void TraceLog::EnsureShards(size_t n) {
  while (shards_.size() < n) shards_.push_back(std::make_unique<Shard>());
}

std::vector<TraceEvent> TraceLog::Merge(const uint64_t* transid) const {
  std::vector<const Rec*> recs;
  for (const auto& s : shards_) {
    for (const Rec& r : *s) {
      if (transid == nullptr || r.e.transid == *transid) recs.push_back(&r);
    }
  }
  // Canonical order: event key, then record order within the event. Keys
  // are globally unique per event and one event records into one shard, so
  // equal keys only occur within a shard, where the stable sort keeps
  // record order.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec* a, const Rec* b) { return a->key < b->key; });
  std::vector<TraceEvent> out;
  out.reserve(recs.size());
  for (const Rec* r : recs) out.push_back(r->e);
  return out;
}

std::vector<TraceEvent> TraceLog::Events(uint64_t transid) const {
  return Merge(&transid);
}

std::vector<TraceEvent> TraceLog::AllEvents() const { return Merge(nullptr); }

std::string TraceLog::Dump(uint64_t transid) const {
  std::ostringstream out;
  out << "trace transid=" << transid << "\n";
  for (const TraceEvent& e : Events(transid)) {
    out << "  " << e.ToString() << "\n";
  }
  return out.str();
}

}  // namespace encompass::sim
