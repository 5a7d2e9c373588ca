// The inter-node data-communications network (the paper's EXPAND analogue):
// a graph of nodes and point-to-point links with
//   * dynamic best-path (min-hop) message routing,
//   * automatic re-routing when a line fails,
//   * an end-to-end protocol that retransmits until delivery or gives up and
//     notifies the sender (so transient glitches are invisible, partitions
//     are not), and
//   * reachability-change notification, which the OS layer turns into
//     NodeUp/NodeDown events.

#ifndef ENCOMPASS_NET_NETWORK_H_
#define ENCOMPASS_NET_NETWORK_H_

#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "net/message.h"
#include "sim/simulation.h"

namespace encompass::net {

constexpr SimDuration kLinkLatency = Millis(15);  ///< default one-way per hop
constexpr SimDuration kRetransmitInterval = Millis(50);  ///< end-to-end pacing
constexpr int kMaxRetransmits = 6;  ///< retransmits before giving up

/// Tunables for the simulated network.
struct NetworkConfig {
  double loss_probability = 0.0;           ///< per-transmission random loss
  /// Per-transaction / per-verb message accounting (PerTxnMessages /
  /// PerTagMessages). Off by default: benches turn it on to price a commit
  /// protocol's message complexity. Only cross-node messages are counted —
  /// same-node traffic never reaches the Network, which is exactly what
  /// makes a co-located acceptor vote free.
  bool track_messages = false;
};

/// Simulated wide-area network connecting Tandem nodes.
class Network {
 public:
  /// Hands an arriving message to its destination node.
  using DeliverFn = std::function<void(Message)>;
  /// observer learns that peer became (un)reachable.
  using ReachabilityFn = std::function<void(NodeId observer, NodeId peer, bool up)>;

  Network(sim::Simulation* sim, NetworkConfig config = {})
      : sim_(sim), config_(config), metrics_(sim->GetStats()) {}

  /// Registers a node and its delivery sink. Must be called before any
  /// link touching `id` is added.
  void AddNode(NodeId id, DeliverFn deliver);

  /// Adds a bidirectional link (initially up). latency <= 0 uses kLinkLatency.
  void AddLink(NodeId a, NodeId b, SimDuration latency = 0);

  /// Cuts or restores a link, triggering rerouting and reachability events.
  void SetLinkUp(NodeId a, NodeId b, bool up);

  /// Cuts every link touching `id` (models total communication loss or a
  /// whole-node failure from the network's point of view).
  void IsolateNode(NodeId id);
  /// Restores every link touching `id`.
  void ReconnectNode(NodeId id);

  /// True if a path of up links exists between the nodes (a == b is true).
  bool Reachable(NodeId from, NodeId to) const;

  /// Min-hop route from -> to (inclusive of both endpoints); empty if
  /// unreachable or unknown nodes. Served from a per-source routing table
  /// stamped with the topology version; tables recompute lazily after a
  /// link or node state change (`net.route_cache_hits/misses`).
  std::vector<NodeId> Route(NodeId from, NodeId to) const;

  /// Current topology version; bumps on every link/node state change.
  /// A routing table stamped with an older version is stale.
  uint64_t topology_version() const { return topology_version_; }

  /// Sends a message toward dst.node. Delivery is asynchronous; on final
  /// failure the sender receives a kTagSendFailed notice (if it asked for a
  /// reply) and the message is counted as undeliverable.
  void Send(Message msg);

  void SetReachabilityListener(ReachabilityFn fn) { reachability_fn_ = std::move(fn); }

  const NetworkConfig& config() const { return config_; }

  /// Snapshot of the track_messages accounting: cross-node messages per
  /// packed transid (messages with no transid stamp are only in the tag
  /// totals) and per message tag. Empty when tracking is off.
  std::map<uint64_t, uint64_t> PerTxnMessages() const;
  std::map<uint32_t, uint64_t> PerTagMessages() const;

 private:
  struct LinkKey {
    NodeId a, b;  // a < b
    bool operator<(const LinkKey& o) const {
      return a != o.a ? a < o.a : b < o.b;
    }
  };
  struct Link {
    SimDuration latency;
    bool up = true;
  };

  static LinkKey Key(NodeId a, NodeId b) {
    return a < b ? LinkKey{a, b} : LinkKey{b, a};
  }

  void Transmit(Message msg, int attempt);
  void NotifyReachabilityChanges(const std::map<NodeId, std::set<NodeId>>& before);
  std::map<NodeId, std::set<NodeId>> ReachableSets() const;

  /// One source node's view of the topology: the BFS parent forest rooted at
  /// `source`, valid while `version == topology_version_`.
  struct RouteTable {
    uint64_t version = 0;
    std::map<NodeId, NodeId> parent;  ///< discovered node -> parent toward source
  };

  /// Returns the (lazily recomputed) routing table for `from`.
  const RouteTable& TableFor(NodeId from) const;

  struct Metrics {
    explicit Metrics(sim::Stats& stats);
    sim::MetricId sent, delivered, retransmits, undeliverable;
    sim::MetricId link_cut, link_restored, node_isolated, node_reconnected;
    sim::MetricId route_cache_hits, route_cache_misses;
    sim::MetricId route_hops;  // histogram
  };

  sim::Simulation* sim_;
  NetworkConfig config_;
  Metrics metrics_;
  std::map<NodeId, DeliverFn> nodes_;
  std::map<LinkKey, Link> links_;
  ReachabilityFn reachability_fn_;
  uint64_t topology_version_ = 1;
  mutable std::map<NodeId, RouteTable> route_tables_;

  /// track_messages accounting. Sends may run concurrently on node loops
  /// under the parallel engine; increments commute, so the mutex is enough
  /// to keep the totals deterministic for a given message history.
  mutable std::mutex track_mutex_;
  std::map<uint64_t, uint64_t> per_txn_msgs_;
  std::map<uint32_t, uint64_t> per_tag_msgs_;
};

}  // namespace encompass::net

#endif  // ENCOMPASS_NET_NETWORK_H_
