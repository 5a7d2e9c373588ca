#include "tmf/recovery.h"

#include <vector>

#include "common/logging.h"
#include "os/node.h"
#include "tmf/commit_acceptor.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

void NodeRecoveryProcess::OnAttach() {
  m_runs_ = stats().RegisterCounter("recovery.runs");
  m_negotiations_ = stats().RegisterCounter("recovery.negotiations");
  m_negotiation_retries_ = stats().RegisterCounter("recovery.negotiation_retries");
  m_presumed_aborts_ = stats().RegisterCounter("recovery.presumed_aborts");
  m_max_retry_attempts_ = stats().RegisterCounter("recovery.max_retry_attempts");
  m_paxos_resolves_ = stats().RegisterCounter("recovery.paxos_resolves");
}

void NodeRecoveryProcess::OnStart() {
  stats().Incr(m_runs_);
  for (const auto& task : config_.tasks) {
    auto plan = PlanRollforward(task, config_.monitor_trail);
    if (!plan.ok()) {
      LOG_ERROR << DebugName() << " cannot plan rollforward of "
                << task.volume->name() << ": " << plan.status().ToString();
      continue;
    }
    planned_.push_back(PlannedVolume{task, std::move(*plan)});
  }

  for (const auto& pv : planned_) {
    for (const Transid& t : pv.plan.unresolved) {
      if (t.home_node == node()->id()) {
        if (PaxosAvailable()) {
          // Paxos Commit: the commit point is external, so "no local MAT
          // record" proves nothing. Seal the instance at the acceptors —
          // the abort-proposing round either fixes abort durably or adopts
          // a commit the crash hid from us.
          pending_[t].own_home = true;
          continue;
        }
        // Home transactions with no durable MAT completion never committed:
        // the forced home MAT record is the commit point, it survives the
        // crash, and it is absent. Record the presumed abort durably so
        // in-doubt participants elsewhere resolve against it instantly.
        if (negotiated_.emplace(t, Disposition::kAborted).second) {
          stats().Incr(m_presumed_aborts_);
          if (config_.monitor_trail != nullptr) {
            config_.monitor_trail->AppendForced(
                audit::CompletionRecord{t, audit::Completion::kAborted});
          }
        }
      } else {
        pending_.emplace(t, Negotiation{});
      }
    }
  }
  NegotiateAll();
}

void NodeRecoveryProcess::NegotiateAll() {
  if (pending_.empty()) {
    Finish();
    return;
  }
  // All pending transids negotiate concurrently: one unreachable home must
  // not head-of-line block the answers other (live) homes can give now.
  std::vector<Transid> ts;
  ts.reserve(pending_.size());
  for (const auto& [t, n] : pending_) {
    if (!n.in_flight) ts.push_back(t);
  }
  for (const Transid& t : ts) Negotiate(t);
}

void NodeRecoveryProcess::Negotiate(const Transid& t) {
  auto it = pending_.find(t);
  if (it == pending_.end() || it->second.in_flight) return;
  if (it->second.own_home) {
    ResolvePaxos(t);
    return;
  }
  it->second.in_flight = true;
  os::CallOptions opt;
  opt.timeout = kNegotiationTimeout;
  Call(net::Address(t.home_node, "$TMP"), kTmfResolveTxn,
       EncodeResolveTxn(t, /*recovering=*/true),
       [this, t](const Status& s, const net::Message& reply) {
         auto it = pending_.find(t);
         if (it == pending_.end()) return;
         it->second.in_flight = false;
         Disposition d = Disposition::kUnknown;
         if (s.ok()) DecodeDisposition(Slice(reply.payload), &d);
         if (d != Disposition::kUnknown) {
           Settle(t, d);
           return;
         }
         if (!s.ok() && PaxosAvailable()) {
           // Home unreachable; under Paxos Commit any live acceptor
           // majority answers in its stead — no waiting for the home.
           ResolvePaxos(t);
           return;
         }
         // Home unreachable (or still deciding): negotiation simply waits.
         // The campaign's single-open-heavy-fault discipline guarantees
         // the home comes back; there is no safe unilateral answer here.
         RetryLater(t);
       },
       opt);
}

void NodeRecoveryProcess::ResolvePaxos(const Transid& t) {
  auto it = pending_.find(t);
  if (it == pending_.end() || it->second.in_flight) return;
  it->second.in_flight = true;
  ResolvePaxosOutcome(this, config_.acceptor_endpoints, t,
                      it->second.paxos_attempt++,
                      [this, t](Disposition chosen) {
                        auto it = pending_.find(t);
                        if (it == pending_.end()) return;
                        it->second.in_flight = false;
                        if (chosen == Disposition::kUnknown) {
                          RetryLater(t);
                          return;
                        }
                        stats().Incr(m_paxos_resolves_);
                        Settle(t, chosen);
                      });
}

void NodeRecoveryProcess::Settle(const Transid& t, Disposition d) {
  stats().Incr(m_negotiations_);
  negotiated_[t] = d;
  if (config_.monitor_trail != nullptr) {
    config_.monitor_trail->AppendForced(audit::CompletionRecord{
        t, d == Disposition::kCommitted ? audit::Completion::kCommitted
                                        : audit::Completion::kAborted});
  }
  pending_.erase(t);
  if (pending_.empty()) Finish();
}

void NodeRecoveryProcess::RetryLater(const Transid& t) {
  auto it = pending_.find(t);
  if (it == pending_.end() || it->second.in_flight) return;
  Negotiation& n = it->second;
  ++n.attempts;
  stats().Incr(m_negotiation_retries_);
  if (n.attempts > reported_max_attempts_) {
    // High-water gauge over a counter substrate: the counter always equals
    // the largest attempt count any single transid has needed, so a
    // permanently stuck negotiation is visible as it climbs every round.
    stats().Incr(m_max_retry_attempts_, n.attempts - reported_max_attempts_);
    reported_max_attempts_ = n.attempts;
  }
  SetTimer(BackoffDelay(t, n.attempts), [this, t]() { Negotiate(t); });
}

SimDuration NodeRecoveryProcess::BackoffDelay(const Transid& t,
                                              uint32_t attempts) const {
  // Capped exponential backoff with deterministic jitter: the same
  // (jitter_seed, transid, attempt) always waits the same time, so recovery
  // schedules replay bit-identically at any worker count, yet concurrent
  // negotiations de-synchronise instead of hammering a dead home in
  // lockstep.
  const SimDuration base = kNegotiationRetryInterval;
  uint32_t shift = attempts > 0 ? attempts - 1 : 0;
  if (shift > 6) shift = 6;
  SimDuration delay = base << shift;
  if (delay > kNegotiationBackoffCap) delay = kNegotiationBackoffCap;
  uint64_t h = config_.jitter_seed ^ (t.Pack() * 0x9e3779b97f4a7c15ull) ^
               (static_cast<uint64_t>(attempts) * 0xbf58476d1ce4e5b9ull);
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 29;
  const SimDuration jitter =
      static_cast<SimDuration>(h % (static_cast<uint64_t>(base) + 1));
  return delay + jitter;
}

void NodeRecoveryProcess::Finish() {
  std::vector<RollforwardReport> reports;
  for (auto& pv : planned_) {
    for (const Transid& t : pv.plan.unresolved) {
      auto it = negotiated_.find(t);
      if (it != negotiated_.end()) pv.plan.dispositions[t] = it->second;
    }
    auto report = ExecuteRollforward(pv.task, pv.plan);
    if (!report.ok()) {
      LOG_ERROR << DebugName() << " rollforward of " << pv.task.volume->name()
                << " failed: " << report.status().ToString();
      reports.push_back(RollforwardReport{});
      continue;
    }
    // The rebuilt volume holds exactly archive + committed redo: nothing in
    // the trail up to this point is undoable any more.
    pv.task.trail->SetUndoFloor(pv.task.trail->next_lsn() - 1);
    reports.push_back(*report);
  }
  if (config_.on_done) config_.on_done(reports);  // may destroy this process
}

}  // namespace encompass::tmf
