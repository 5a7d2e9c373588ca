// Cluster: the whole simulated world — a set of Nodes joined by a Network,
// all driven by one Simulation. Owns the fault-injection entry points used
// by tests and benchmarks.

#ifndef ENCOMPASS_OS_CLUSTER_H_
#define ENCOMPASS_OS_CLUSTER_H_

#include <map>
#include <memory>

#include "net/network.h"
#include "os/node.h"
#include "sim/simulation.h"

namespace encompass::os {

/// A network of Tandem nodes under simulation.
class Cluster {
 public:
  Cluster(sim::Simulation* sim, net::NetworkConfig net_config = {});

  sim::Simulation* sim() const { return sim_; }
  net::Network& network() { return network_; }

  /// Creates a node. Node ids must be unique; typical configs use 1..N.
  Node* AddNode(net::NodeId id, NodeConfig config = {});
  Node* GetNode(net::NodeId id) const;

  /// Adds a bidirectional network link between two existing nodes.
  void Link(net::NodeId a, net::NodeId b, SimDuration latency = 0);

  // -- Fault-injection conveniences -------------------------------------------

  void CutLink(net::NodeId a, net::NodeId b) { network_.SetLinkUp(a, b, false); }
  void RestoreLink(net::NodeId a, net::NodeId b) { network_.SetLinkUp(a, b, true); }
  void IsolateNode(net::NodeId id) { network_.IsolateNode(id); }
  void ReconnectNode(net::NodeId id) { network_.ReconnectNode(id); }
  /// Fails every CPU of a node: total node failure.
  void CrashNode(net::NodeId id);
  /// Reverses CrashNode: cold-reloads every CPU, restores both buses, and
  /// reconnects the node's network links. Processes and volatile state are
  /// gone — the caller re-spawns services (and runs ROLLFORWARD) afterwards.
  void ReloadNode(net::NodeId id);

 private:
  sim::Simulation* sim_;
  net::Network network_;
  std::map<net::NodeId, std::unique_ptr<Node>> nodes_;
};

}  // namespace encompass::os

#endif  // ENCOMPASS_OS_CLUSTER_H_
