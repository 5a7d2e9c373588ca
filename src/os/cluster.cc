#include "os/cluster.h"

#include <cassert>

namespace encompass::os {

Cluster::Cluster(sim::Simulation* sim, net::NetworkConfig net_config)
    : sim_(sim), network_(sim, net_config) {
  network_.SetReachabilityListener(
      [this](net::NodeId observer, net::NodeId peer, bool up) {
        Node* node = GetNode(observer);
        if (node != nullptr) node->PeerReachability(peer, up);
      });
}

Node* Cluster::AddNode(net::NodeId id, NodeConfig config) {
  assert(nodes_.find(id) == nodes_.end());
  auto node = std::make_unique<Node>(this, id, config);
  Node* raw = node.get();
  nodes_.emplace(id, std::move(node));
  // Inbound network messages also pass through the destination CPU's
  // service queue.
  network_.AddNode(id, [raw](net::Message msg) {
    raw->ScheduleDelivery(std::move(msg), 0);
  });
  return raw;
}

Node* Cluster::GetNode(net::NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void Cluster::Link(net::NodeId a, net::NodeId b, SimDuration latency) {
  network_.AddLink(a, b, latency);
}

void Cluster::CrashNode(net::NodeId id) {
  Node* node = GetNode(id);
  if (node == nullptr) return;
  for (int cpu = 0; cpu < node->config().num_cpus; ++cpu) {
    node->FailCpu(cpu);
  }
  // A dead node cannot talk to anyone: reflect that in the network so peers
  // observe unreachability.
  network_.IsolateNode(id);
}

void Cluster::ReloadNode(net::NodeId id) {
  Node* node = GetNode(id);
  if (node == nullptr) return;
  for (int cpu = 0; cpu < node->config().num_cpus; ++cpu) {
    if (!node->CpuUp(cpu)) node->ReloadCpu(cpu);
  }
  node->SetBusUp(0, true);
  node->SetBusUp(1, true);
  network_.ReconnectNode(id);
}

}  // namespace encompass::os
