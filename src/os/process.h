// Process: the actor base class of the simulated Guardian operating system.
// A process lives on one CPU of one node, communicates only by messages,
// and may set timers. Request/reply correlation, timeouts, and transparent
// retries (the "file system" behaviour of the paper) are provided here.

#ifndef ENCOMPASS_OS_PROCESS_H_
#define ENCOMPASS_OS_PROCESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/sim_time.h"
#include "common/status.h"
#include "net/message.h"
#include "sim/simulation.h"

namespace encompass::os {

class Node;

/// Options for Process::Call.
struct CallOptions {
  SimDuration timeout = Seconds(5);
  /// Transparent resends after a timeout or send-failure, re-resolving the
  /// destination name each time — this is what makes process-pair takeover
  /// invisible to requesters (Tandem file-system retry).
  int retries = 0;
  /// Pause before resending after a fast send-failure (lets regroup finish
  /// and the pair's name rebind to the new primary).
  SimDuration retry_backoff = Millis(10);
};

/// Actor base class. Subclasses override OnMessage and the failure hooks.
class Process {
 public:
  Process() = default;
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Infrastructure wiring; called exactly once by Node::Spawn.
  void Attach(Node* node, int cpu, net::Pid pid);

  net::ProcessId id() const;
  int cpu() const { return cpu_; }
  Node* node() const { return node_; }
  sim::Simulation* sim() const;

  /// Human-readable identity for logs ("$DATA1(P)", "tcp-3", ...).
  virtual std::string DebugName() const;

  // -- Messaging ------------------------------------------------------------

  /// One-way send. The process's current transid is stamped on the message
  /// (the paper's "the File System automatically appends the ... transid").
  void Send(const net::Address& dst, uint32_t tag, Bytes payload = {});

  /// Reply callback: status is derived from the reply's status code; msg is
  /// the reply message (payload valid only when status is OK or app-defined).
  using RpcCallback = std::function<void(const Status&, const net::Message&)>;

  /// Request expecting a reply. The callback fires exactly once: with the
  /// reply, with a Timeout status, or with Unavailable/Partitioned on
  /// delivery failure.
  void Call(const net::Address& dst, uint32_t tag, Bytes payload,
            RpcCallback cb, CallOptions options = {});

  /// Answers a request.
  void Reply(const net::Message& request, const Status& status, Bytes payload = {});

  /// Answers a request identified only by requester and request id — used
  /// when replaying a cached reply after a process-pair takeover (the
  /// original Message object died with the old primary).
  void SendReply(net::ProcessId requester, uint32_t tag, uint64_t reply_to,
                 const Status& status, Bytes payload = {});

  // -- Transaction identity (set by TMF / server layer) ----------------------

  uint64_t current_transid() const { return current_transid_; }
  void set_current_transid(uint64_t packed) { current_transid_ = packed; }

  // -- Timers ---------------------------------------------------------------

  /// Runs fn after `delay` unless cancelled or this process dies first.
  uint64_t SetTimer(SimDuration delay, std::function<void()> fn);
  void CancelTimer(uint64_t timer_id);

  // -- Causal tracing --------------------------------------------------------

  /// The trace context of the message or timer currently being handled.
  /// Transaction-less work has an inactive context.
  const sim::TraceContext& current_trace() const { return active_trace_; }
  /// Runs fn with `ctx` installed as the active trace context, restoring the
  /// previous context afterwards (robust to fn destroying this process).
  /// Used when one physical event completes work for several causal chains —
  /// e.g. finishing each waiter of a coalesced group-commit batch under
  /// that waiter's own span instead of the batch leader's.
  void WithTraceContext(const sim::TraceContext& ctx,
                        const std::function<void()>& fn);

  // -- Event hooks (override points) -----------------------------------------

  /// Called once from Attach, before OnStart, when sim()/node() are valid —
  /// the place to register metric handles.
  virtual void OnAttach() {}
  /// Called once, shortly after spawn, when messaging is available.
  virtual void OnStart() {}
  /// Called for every non-reply message addressed to this process.
  virtual void OnMessage(const net::Message& msg) { (void)msg; }
  /// A CPU of this node failed (regroup broadcast; fires on survivors only).
  virtual void OnCpuDown(int cpu) { (void)cpu; }
  /// A previously failed CPU of this node was reloaded.
  virtual void OnCpuUp(int cpu) { (void)cpu; }
  /// A remote node became unreachable from this node.
  virtual void OnNodeDown(net::NodeId peer) { (void)peer; }
  /// A remote node became reachable again.
  virtual void OnNodeUp(net::NodeId peer) { (void)peer; }

  /// Message entry point called by the node; routes replies to pending
  /// calls, everything else to OnMessage. Takes the message by value (the
  /// node moves it in — the last hop of the copy-free delivery path).
  /// Not an override point.
  void DeliverToProcess(net::Message msg);

 protected:
  /// The simulation's stats registry (valid from OnAttach on).
  sim::Stats& stats() const { return *stats_; }

  /// Appends a trace event for `transid` at this node, under the span of the
  /// message/timer being handled. No-op when transid is 0 or tracing is off.
  void Trace(sim::TraceEventKind kind, uint64_t transid, uint32_t a = 0,
             uint32_t b = 0) const;

 private:
  void DispatchMessage(const net::Message& msg);
  /// Stamps a fresh causal span (and a kMsgSend event) onto an outgoing
  /// message when it belongs to a transaction.
  void StampTrace(net::Message& msg);
  void ResolveCall(uint64_t request_id, const Status& status,
                   const net::Message& msg);
  void StartCallTimer(uint64_t request_id);

  Node* node_ = nullptr;
  int cpu_ = -1;
  net::Pid pid_ = 0;
  uint64_t current_transid_ = 0;
  uint64_t next_request_id_ = 1;
  sim::Stats* stats_ = nullptr;
  sim::MetricId m_call_retries_;
  sim::TraceContext active_trace_;

  struct PendingCall {
    net::Message original;  // for transparent retries
    RpcCallback cb;
    uint64_t timer = 0;
    int retries_left = 0;
    SimDuration timeout = 0;
    SimDuration retry_backoff = 0;
  };
  std::unordered_map<uint64_t, PendingCall> pending_calls_;

  // Liveness guard: timers capture a weak_ptr to this so callbacks scheduled
  // before a CPU failure cannot touch a destroyed process.
  std::shared_ptr<Process*> self_ = std::make_shared<Process*>(this);
};

}  // namespace encompass::os

#endif  // ENCOMPASS_OS_PROCESS_H_
