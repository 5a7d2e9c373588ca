// Node: one Tandem "system" — up to 16 CPUs joined by dual interprocessor
// buses, a node-local process table and name registry, and failure-detection
// (regroup) broadcast. A Node delivers intra-node messages itself and hands
// inter-node messages to the Cluster's Network.

#ifndef ENCOMPASS_OS_NODE_H_
#define ENCOMPASS_OS_NODE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/message.h"
#include "os/process.h"
#include "sim/simulation.h"

namespace encompass::os {

class Cluster;

constexpr SimDuration kSameCpuLatency = Micros(2);
constexpr SimDuration kBusLatency = Micros(10);   ///< dual 13.5 MB/s IPC bus
constexpr SimDuration kRegroupDelay = Millis(5);  ///< CPU-failure detection

/// Per-node tunables.
struct NodeConfig {
  int num_cpus = 4;                      ///< 2..16 per the paper
  /// CPU time charged per delivered message (handler execution). Messages
  /// queue when their destination CPU is busy — this is what makes adding
  /// processors increase throughput.
  SimDuration cpu_service_time = Micros(50);
};

/// One network node (a multi-processor Tandem system).
class Node {
 public:
  Node(Cluster* cluster, net::NodeId id, NodeConfig config);
  ~Node();

  net::NodeId id() const { return id_; }
  Cluster* cluster() const { return cluster_; }
  sim::Simulation* sim() const;
  const NodeConfig& config() const { return config_; }

  // -- Process management ----------------------------------------------------

  /// Creates a T on the given CPU and starts it. Returns nullptr if the CPU
  /// is down. The node owns the process.
  template <typename T, typename... Args>
  T* Spawn(int cpu, Args&&... args) {
    if (!CpuUp(cpu)) return nullptr;
    auto proc = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = proc.get();
    AdoptProcess(cpu, std::move(proc));
    return raw;
  }

  /// Destroys one process (normal termination, not a failure event).
  void Kill(net::Pid pid);

  /// Finds a live process by pid; nullptr if unknown or dead.
  Process* Find(net::Pid pid) const;

  /// Pids of all live processes (snapshot).
  std::vector<net::Pid> LivePids() const;

  // -- Name registry ----------------------------------------------------------

  /// Binds a symbolic name ("$DATA1") to a pid, replacing any prior binding.
  /// Process-pair takeover re-binds the name to the new primary.
  void RegisterName(const std::string& name, net::Pid pid);
  /// 0 if unbound.
  net::Pid LookupName(const std::string& name) const;

  // -- CPU and bus failure ----------------------------------------------------

  bool CpuUp(int cpu) const;
  int AliveCpuCount() const;
  /// True when every CPU is down — total node failure.
  bool Dead() const { return AliveCpuCount() == 0; }

  /// Fails a CPU: every process on it is destroyed instantly; survivors get
  /// OnCpuDown after the regroup delay.
  void FailCpu(int cpu);
  /// Brings a failed CPU back (cold: no processes). Survivors get OnCpuUp.
  void ReloadCpu(int cpu);

  /// Dual interprocessor buses: X (0) and Y (1). Intra-node traffic uses the
  /// first up bus; with both down, cross-CPU messages are undeliverable.
  void SetBusUp(int bus, bool up);

  // -- Message plumbing (called by Process / Cluster) --------------------------

  /// Routes a message from a local process: intra-node over the bus, or to
  /// the network for a remote node.
  void Route(net::Message msg);

  /// Delivers a message arriving at this node (from the bus or the network):
  /// resolves a name address, finds the target process, and hands over.
  /// Takes ownership of the message — it is moved, not copied, into the
  /// target process. Undeliverable requests produce a send-failed notice.
  void DeliverLocal(net::Message msg);

  /// Reachability event from the network layer: broadcast to all processes.
  void PeerReachability(net::NodeId peer, bool up);

  /// Schedules delivery of a message after `latency`, serialized on the
  /// destination CPU's service queue (used for intra-node routing and for
  /// inbound network messages).
  void ScheduleDelivery(net::Message msg, SimDuration latency);

 private:
  struct CpuSlot {
    bool up = true;
    std::map<net::Pid, std::unique_ptr<Process>> processes;
  };

  struct Metrics {
    explicit Metrics(sim::Stats& stats);
    sim::MetricId cpu_failures, cpu_reloads, bus_failed, bus_restored;
    sim::MetricId bus_undeliverable, bus_x_msgs, bus_y_msgs, deliver_no_process;
  };

  void AdoptProcess(int cpu, std::unique_ptr<Process> proc);
  void SendFailureNotice(const net::Message& request, Status::Code code);
  /// Invokes fn(process) for every currently live process, robust to
  /// spawns/deaths during iteration.
  void Broadcast(const std::function<void(Process*)>& fn);

  Cluster* cluster_;
  net::NodeId id_;
  NodeConfig config_;
  Metrics metrics_;
  std::vector<CpuSlot> cpus_;
  std::vector<SimTime> cpu_free_;
  std::map<net::Pid, int> pid_to_cpu_;
  std::map<std::string, net::Pid> names_;
  bool bus_up_[2] = {true, true};
  net::Pid next_pid_ = 1;
};

}  // namespace encompass::os

#endif  // ENCOMPASS_OS_NODE_H_
