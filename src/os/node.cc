#include "os/node.h"

#include <cassert>

#include "common/logging.h"
#include "os/cluster.h"

namespace encompass::os {

Node::Metrics::Metrics(sim::Stats& stats)
    : cpu_failures(stats.RegisterCounter("os.cpu_failures")),
      cpu_reloads(stats.RegisterCounter("os.cpu_reloads")),
      bus_failed(stats.RegisterCounter("os.bus_failed")),
      bus_restored(stats.RegisterCounter("os.bus_restored")),
      bus_undeliverable(stats.RegisterCounter("os.bus_undeliverable")),
      bus_x_msgs(stats.RegisterCounter("os.bus_x_msgs")),
      bus_y_msgs(stats.RegisterCounter("os.bus_y_msgs")),
      deliver_no_process(stats.RegisterCounter("os.deliver_no_process")) {}

Node::Node(Cluster* cluster, net::NodeId id, NodeConfig config)
    : cluster_(cluster),
      id_(id),
      config_(config),
      metrics_(cluster->sim()->GetStats()) {
  assert(config_.num_cpus >= 1 && config_.num_cpus <= 16);
  cpus_.resize(config_.num_cpus);
  cpu_free_.resize(config_.num_cpus, 0);
}

Node::~Node() = default;

sim::Simulation* Node::sim() const { return cluster_->sim(); }

void Node::AdoptProcess(int cpu, std::unique_ptr<Process> proc) {
  net::Pid pid = next_pid_++;
  Process* raw = proc.get();
  raw->Attach(this, cpu, pid);
  cpus_[cpu].processes.emplace(pid, std::move(proc));
  pid_to_cpu_[pid] = cpu;
  // OnStart runs as a scheduled event so the subclass constructor has fully
  // completed and spawn order does not leak into event order.
  net::Pid captured = pid;
  sim()->AfterOn(id_, Micros(1), [this, captured]() {
    Process* p = Find(captured);
    if (p != nullptr) p->OnStart();
  });
}

void Node::Kill(net::Pid pid) {
  auto it = pid_to_cpu_.find(pid);
  if (it == pid_to_cpu_.end()) return;
  auto& slot = cpus_[it->second];
  slot.processes.erase(pid);
  pid_to_cpu_.erase(it);
  for (auto nit = names_.begin(); nit != names_.end();) {
    if (nit->second == pid) nit = names_.erase(nit);
    else ++nit;
  }
}

Process* Node::Find(net::Pid pid) const {
  auto it = pid_to_cpu_.find(pid);
  if (it == pid_to_cpu_.end()) return nullptr;
  const auto& procs = cpus_[it->second].processes;
  auto pit = procs.find(pid);
  return pit == procs.end() ? nullptr : pit->second.get();
}

std::vector<net::Pid> Node::LivePids() const {
  std::vector<net::Pid> pids;
  pids.reserve(pid_to_cpu_.size());
  for (const auto& [pid, cpu] : pid_to_cpu_) {
    (void)cpu;
    pids.push_back(pid);
  }
  return pids;
}

void Node::RegisterName(const std::string& name, net::Pid pid) {
  names_[name] = pid;
}

net::Pid Node::LookupName(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? 0 : it->second;
}

bool Node::CpuUp(int cpu) const {
  return cpu >= 0 && cpu < static_cast<int>(cpus_.size()) && cpus_[cpu].up;
}

int Node::AliveCpuCount() const {
  int n = 0;
  for (const auto& slot : cpus_) n += slot.up ? 1 : 0;
  return n;
}

void Node::FailCpu(int cpu) {
  if (!CpuUp(cpu)) return;
  auto& slot = cpus_[cpu];
  slot.up = false;
  // Processes on the failed CPU vanish immediately (memory is gone).
  for (const auto& [pid, proc] : slot.processes) {
    (void)proc;
    pid_to_cpu_.erase(pid);
    for (auto nit = names_.begin(); nit != names_.end();) {
      if (nit->second == pid) nit = names_.erase(nit);
      else ++nit;
    }
  }
  slot.processes.clear();
  sim()->GetStats().Incr(metrics_.cpu_failures);
  // Survivors learn about it after the regroup (failure-detection) delay.
  sim()->AfterOn(id_, kRegroupDelay, [this, cpu]() {
    Broadcast([cpu](Process* p) { p->OnCpuDown(cpu); });
  });
}

void Node::ReloadCpu(int cpu) {
  if (cpu < 0 || cpu >= static_cast<int>(cpus_.size()) || cpus_[cpu].up) return;
  cpus_[cpu].up = true;
  sim()->GetStats().Incr(metrics_.cpu_reloads);
  sim()->AfterOn(id_, kRegroupDelay, [this, cpu]() {
    Broadcast([cpu](Process* p) { p->OnCpuUp(cpu); });
  });
}

void Node::SetBusUp(int bus, bool up) {
  bus_up_[bus & 1] = up;
  sim()->GetStats().Incr(up ? metrics_.bus_restored : metrics_.bus_failed);
}

void Node::Broadcast(const std::function<void(Process*)>& fn) {
  // Snapshot pids first: handlers may spawn or kill processes.
  for (net::Pid pid : LivePids()) {
    Process* p = Find(pid);
    if (p != nullptr) fn(p);
  }
}

void Node::Route(net::Message msg) {
  if (msg.dst.node == id_) {
    // Intra-node: same-CPU shortcut or interprocessor bus.
    int src_cpu = pid_to_cpu_.count(msg.src.pid) ? pid_to_cpu_[msg.src.pid] : -1;
    int dst_cpu = -1;
    net::Pid dst_pid = msg.dst.by_name() ? LookupName(msg.dst.name) : msg.dst.pid;
    if (pid_to_cpu_.count(dst_pid)) dst_cpu = pid_to_cpu_[dst_pid];

    SimDuration latency;
    if (dst_cpu >= 0 && dst_cpu == src_cpu) {
      latency = kSameCpuLatency;
    } else {
      // Pick the first up bus (X preferred). Both down: cross-CPU messages
      // cannot be delivered — counted, and requests get a failure notice.
      if (!bus_up_[0] && !bus_up_[1]) {
        sim()->GetStats().Incr(metrics_.bus_undeliverable);
        SendFailureNotice(msg, Status::Code::kUnavailable);
        return;
      }
      sim()->GetStats().Incr(bus_up_[0] ? metrics_.bus_x_msgs : metrics_.bus_y_msgs);
      latency = kBusLatency;
    }
    ScheduleDelivery(std::move(msg), latency);
    return;
  }
  cluster_->network().Send(std::move(msg));
}

void Node::ScheduleDelivery(net::Message msg, SimDuration latency) {
  // Serialize handler execution on the destination CPU: the message is
  // processed when the CPU frees up, and occupies it for the service time.
  int dst_cpu = -1;
  net::Pid dst_pid = msg.dst.by_name() ? LookupName(msg.dst.name) : msg.dst.pid;
  auto it = pid_to_cpu_.find(dst_pid);
  if (it != pid_to_cpu_.end()) dst_cpu = it->second;

  SimTime arrival = sim()->Now() + latency;
  if (dst_cpu >= 0 && config_.cpu_service_time > 0) {
    SimTime start = arrival > cpu_free_[dst_cpu] ? arrival : cpu_free_[dst_cpu];
    cpu_free_[dst_cpu] = start + config_.cpu_service_time;
    arrival = start + config_.cpu_service_time;
  }
  sim()->AtOn(id_, arrival, [this, msg = std::move(msg)]() mutable {
    DeliverLocal(std::move(msg));
  });
}

void Node::DeliverLocal(net::Message msg) {
  net::Pid pid = msg.dst.by_name() ? LookupName(msg.dst.name) : msg.dst.pid;
  Process* target = (pid != 0) ? Find(pid) : nullptr;
  if (target == nullptr) {
    sim()->GetStats().Incr(metrics_.deliver_no_process);
    SendFailureNotice(msg, Status::Code::kUnavailable);
    return;
  }
  target->DeliverToProcess(std::move(msg));
}

void Node::SendFailureNotice(const net::Message& request, Status::Code code) {
  if (request.request_id == 0 || request.is_reply()) return;
  net::Message fail;
  fail.src = net::ProcessId{id_, 0};
  fail.dst = net::Address(request.src);
  fail.tag = net::kTagSendFailed;
  fail.reply_to = request.request_id;
  fail.status = code;
  if (request.src.node == id_) {
    sim()->AfterOn(id_, kSameCpuLatency,
                   [this, fail = std::move(fail)]() mutable {
                     DeliverLocal(std::move(fail));
                   });
  } else {
    cluster_->network().Send(std::move(fail));
  }
}

void Node::PeerReachability(net::NodeId peer, bool up) {
  Broadcast([peer, up](Process* p) {
    if (up) p->OnNodeUp(peer);
    else p->OnNodeDown(peer);
  });
}

}  // namespace encompass::os
