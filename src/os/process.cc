#include "os/process.h"

#include <cassert>

#include "common/logging.h"
#include "os/node.h"

namespace encompass::os {

Process::~Process() {
  *self_ = nullptr;  // disarm outstanding timers
}

void Process::Attach(Node* node, int cpu, net::Pid pid) {
  assert(node_ == nullptr && "process attached twice");
  node_ = node;
  cpu_ = cpu;
  pid_ = pid;
  stats_ = &node->sim()->GetStats();
  m_call_retries_ = stats_->RegisterCounter("os.call_retries");
  OnAttach();
}

net::ProcessId Process::id() const {
  return net::ProcessId{node_ ? node_->id() : net::NodeId{0}, pid_};
}

sim::Simulation* Process::sim() const { return node_->sim(); }

std::string Process::DebugName() const { return id().ToString(); }

void Process::Trace(sim::TraceEventKind kind, uint64_t transid, uint32_t a,
                    uint32_t b) const {
  sim::TraceContext ctx{transid, active_trace_.span};
  sim()->RecordTrace(kind, ctx, id().node, a, b);
}

void Process::StampTrace(net::Message& msg) {
  const uint64_t transid =
      current_transid_ != 0 ? current_transid_ : active_trace_.transid;
  if (transid == 0) return;
  // The transid rides on every message, traced or not: Network attributes
  // messages to transactions by it. Only the span and the send record wait
  // for a reader to enable tracing.
  msg.trace.transid = transid;
  sim::TraceLog& log = sim()->GetTrace();
  if (!log.enabled()) return;
  msg.trace.span = log.NewSpan(id().node);
  sim()->RecordTrace(sim::TraceEventKind::kMsgSend, msg.trace, id().node,
                     msg.tag, msg.dst.node, active_trace_.span);
}

void Process::Send(const net::Address& dst, uint32_t tag, Bytes payload) {
  net::Message msg;
  msg.src = id();
  msg.dst = dst;
  msg.tag = tag;
  msg.transid = current_transid_;
  msg.payload = std::move(payload);
  StampTrace(msg);
  node_->Route(std::move(msg));
}

void Process::Call(const net::Address& dst, uint32_t tag, Bytes payload,
                   RpcCallback cb, CallOptions options) {
  net::Message msg;
  msg.src = id();
  msg.dst = dst;
  msg.tag = tag;
  msg.request_id = next_request_id_++;
  msg.transid = current_transid_;
  msg.payload = std::move(payload);
  StampTrace(msg);

  PendingCall pending;
  pending.original = msg;
  pending.cb = std::move(cb);
  pending.retries_left = options.retries;
  pending.timeout = options.timeout;
  pending.retry_backoff = options.retry_backoff;
  uint64_t request_id = msg.request_id;
  pending_calls_.emplace(request_id, std::move(pending));

  node_->Route(std::move(msg));
  StartCallTimer(request_id);
}

void Process::StartCallTimer(uint64_t request_id) {
  auto it = pending_calls_.find(request_id);
  if (it == pending_calls_.end()) return;
  it->second.timer = SetTimer(it->second.timeout, [this, request_id]() {
    auto pit = pending_calls_.find(request_id);
    if (pit == pending_calls_.end()) return;
    if (pit->second.retries_left > 0) {
      // Transparent file-system retry: resend the identical request (same
      // request id). A name-addressed destination re-resolves at delivery,
      // so a retried request reaches the pair's new primary after takeover.
      --pit->second.retries_left;
      stats_->Incr(m_call_retries_);
      node_->Route(pit->second.original);
      StartCallTimer(request_id);
      return;
    }
    net::Message empty;
    empty.reply_to = request_id;
    ResolveCall(request_id, Status::Timeout("no reply from " +
                                            pit->second.original.dst.ToString()),
                empty);
  });
}

void Process::Reply(const net::Message& request, const Status& status,
                    Bytes payload) {
  if (request.request_id == 0) return;  // one-way message: nothing to answer
  net::Message msg;
  msg.src = id();
  msg.dst = net::Address(request.src);
  msg.tag = request.tag;
  msg.reply_to = request.request_id;
  msg.status = status.code();
  msg.status_text = status.message();
  msg.transid = request.transid;
  msg.payload = std::move(payload);
  StampTrace(msg);
  node_->Route(std::move(msg));
}

void Process::SendReply(net::ProcessId requester, uint32_t tag, uint64_t reply_to,
                        const Status& status, Bytes payload) {
  if (reply_to == 0) return;
  net::Message msg;
  msg.src = id();
  msg.dst = net::Address(requester);
  msg.tag = tag;
  msg.reply_to = reply_to;
  msg.status = status.code();
  msg.status_text = status.message();
  msg.payload = std::move(payload);
  StampTrace(msg);
  node_->Route(std::move(msg));
}

void Process::ResolveCall(uint64_t request_id, const Status& status,
                          const net::Message& msg) {
  auto it = pending_calls_.find(request_id);
  if (it == pending_calls_.end()) return;
  CancelTimer(it->second.timer);
  RpcCallback cb = std::move(it->second.cb);
  pending_calls_.erase(it);
  cb(status, msg);
}

uint64_t Process::SetTimer(SimDuration delay, std::function<void()> fn) {
  std::weak_ptr<Process*> guard = self_;
  // Timers inherit the trace context they were armed under, so causal chains
  // survive latency hops (audit-force delay, MAT force, disc service time).
  const sim::TraceContext ctx = active_trace_;
  // Pinned to the process's own node loop even when armed from setup code
  // or a global event, so CancelTimer from the node's events stays loop-local.
  return sim()->AfterOn(id().node, delay, [guard, ctx, fn = std::move(fn)]() {
    auto locked = guard.lock();
    if (!locked || *locked == nullptr) return;
    const sim::TraceContext saved = (*locked)->active_trace_;
    (*locked)->active_trace_ = ctx;
    fn();
    // fn may have destroyed the process; *locked is nulled in that case.
    if (*locked != nullptr) (*locked)->active_trace_ = saved;
  });
}

void Process::CancelTimer(uint64_t timer_id) {
  if (timer_id != 0) sim()->Cancel(timer_id);
}

void Process::DeliverToProcess(net::Message msg) {
  const sim::TraceContext saved = active_trace_;
  if (msg.trace.active()) {
    active_trace_ = msg.trace;
    sim()->RecordTrace(sim::TraceEventKind::kMsgDeliver, active_trace_,
                       id().node, msg.tag);
  } else if (msg.transid != 0) {
    // A file-system transid without a trace stamp (e.g. a reply sent from a
    // context outside the transaction): adopt the transid so downstream work
    // is attributable.
    active_trace_ = sim::TraceContext{msg.transid, 0};
  } else {
    active_trace_ = sim::TraceContext{};
  }
  // Dispatch may destroy this process (a handler can trigger a CPU failure
  // or respawn); only restore the context if we survived.
  std::weak_ptr<Process*> guard = self_;
  DispatchMessage(msg);
  if (auto locked = guard.lock(); locked && *locked != nullptr) {
    active_trace_ = saved;
  }
}

void Process::WithTraceContext(const sim::TraceContext& ctx,
                               const std::function<void()>& fn) {
  const sim::TraceContext saved = active_trace_;
  active_trace_ = ctx;
  std::weak_ptr<Process*> guard = self_;
  fn();
  if (auto locked = guard.lock(); locked && *locked != nullptr) {
    active_trace_ = saved;
  }
}

void Process::DispatchMessage(const net::Message& msg) {
  if (msg.is_reply()) {
    if (msg.tag == net::kTagSendFailed) {
      net::Message empty;
      empty.reply_to = msg.reply_to;
      // A send-failure may still be retried transparently.
      auto it = pending_calls_.find(msg.reply_to);
      if (it != pending_calls_.end() && it->second.retries_left > 0) {
        --it->second.retries_left;
        stats_->Incr(m_call_retries_);
        CancelTimer(it->second.timer);
        // Back off before resending: a fast failure (dead pid / unbound
        // name) usually means a takeover is in progress.
        uint64_t request_id = msg.reply_to;
        it->second.timer = SetTimer(it->second.retry_backoff, [this, request_id]() {
          auto pit = pending_calls_.find(request_id);
          if (pit == pending_calls_.end()) return;
          node_->Route(pit->second.original);
          StartCallTimer(request_id);
        });
        return;
      }
      ResolveCall(msg.reply_to,
                  Status(msg.status, "undeliverable"), empty);
      return;
    }
    Status status = (msg.status == Status::Code::kOk)
                        ? Status::Ok()
                        : Status(msg.status, msg.status_text);
    ResolveCall(msg.reply_to, status, msg);
    return;
  }
  OnMessage(msg);
}

}  // namespace encompass::os
