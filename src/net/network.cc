#include "net/network.h"

#include <cassert>
#include <deque>

#include "common/logging.h"

namespace encompass::net {

Network::Metrics::Metrics(sim::Stats& stats)
    : sent(stats.RegisterCounter("net.sent")),
      delivered(stats.RegisterCounter("net.delivered")),
      retransmits(stats.RegisterCounter("net.retransmits")),
      undeliverable(stats.RegisterCounter("net.undeliverable")),
      link_cut(stats.RegisterCounter("net.link_cut")),
      link_restored(stats.RegisterCounter("net.link_restored")),
      node_isolated(stats.RegisterCounter("net.node_isolated")),
      node_reconnected(stats.RegisterCounter("net.node_reconnected")),
      route_cache_hits(stats.RegisterCounter("net.route_cache_hits")),
      route_cache_misses(stats.RegisterCounter("net.route_cache_misses")),
      route_hops(stats.RegisterHistogram("net.route_hops")) {}

void Network::AddNode(NodeId id, DeliverFn deliver) {
  nodes_[id] = std::move(deliver);
  sim_->EnsureNode(id);  // the node's event loop exists before any traffic
  // Pre-create the per-source routing table entry: after setup the map's
  // structure is frozen, so node events (possibly on worker threads) only
  // ever touch their own node's mapped value.
  route_tables_[id];
  ++topology_version_;
}

void Network::AddLink(NodeId a, NodeId b, SimDuration latency) {
  assert(nodes_.count(a) && nodes_.count(b) && a != b);
  const SimDuration l = latency > 0 ? latency : kLinkLatency;
  links_[Key(a, b)] = Link{l, true};
  // Feed the conservative engine's per-pair lookahead table: no cross-node
  // interaction between two nodes can take effect sooner than the least
  // declared-link path between them.
  sim_->NoteLinkLatency(a, b, l);
  ++topology_version_;
}

void Network::SetLinkUp(NodeId a, NodeId b, bool up) {
  auto it = links_.find(Key(a, b));
  if (it == links_.end() || it->second.up == up) return;
  auto before = ReachableSets();
  it->second.up = up;
  ++topology_version_;
  sim_->GetStats().Incr(up ? metrics_.link_restored : metrics_.link_cut);
  NotifyReachabilityChanges(before);
}

void Network::IsolateNode(NodeId id) {
  auto before = ReachableSets();
  bool changed = false;
  for (auto& [key, link] : links_) {
    if ((key.a == id || key.b == id) && link.up) {
      link.up = false;
      changed = true;
    }
  }
  if (changed) {
    ++topology_version_;
    sim_->GetStats().Incr(metrics_.node_isolated);
    NotifyReachabilityChanges(before);
  }
}

void Network::ReconnectNode(NodeId id) {
  auto before = ReachableSets();
  bool changed = false;
  for (auto& [key, link] : links_) {
    if ((key.a == id || key.b == id) && !link.up) {
      link.up = true;
      changed = true;
    }
  }
  if (changed) {
    ++topology_version_;
    sim_->GetStats().Incr(metrics_.node_reconnected);
    NotifyReachabilityChanges(before);
  }
}

bool Network::Reachable(NodeId from, NodeId to) const {
  if (from == to) return nodes_.count(from) > 0;
  if (!nodes_.count(from) || !nodes_.count(to)) return false;
  return TableFor(from).parent.count(to) > 0;
}

const Network::RouteTable& Network::TableFor(NodeId from) const {
  RouteTable& table = route_tables_[from];
  if (table.version == topology_version_) {
    sim_->GetStats().Incr(metrics_.route_cache_hits);
    return table;
  }
  sim_->GetStats().Incr(metrics_.route_cache_misses);
  // Full BFS over up links builds the min-hop parent forest rooted at `from`;
  // ties break toward smaller node ids because links_ is an ordered map —
  // deterministic routing. Parents are assigned at first discovery, so the
  // forest yields the same paths a per-query BFS would.
  table.parent.clear();
  table.parent[from] = from;
  std::deque<NodeId> frontier{from};
  while (!frontier.empty()) {
    NodeId cur = frontier.front();
    frontier.pop_front();
    for (const auto& [key, link] : links_) {
      if (!link.up) continue;
      NodeId next;
      if (key.a == cur) next = key.b;
      else if (key.b == cur) next = key.a;
      else continue;
      if (table.parent.count(next)) continue;
      table.parent[next] = cur;
      frontier.push_back(next);
    }
  }
  table.version = topology_version_;
  return table;
}

std::vector<NodeId> Network::Route(NodeId from, NodeId to) const {
  if (!nodes_.count(from) || !nodes_.count(to)) return {};
  if (from == to) return {from};
  const RouteTable& table = TableFor(from);
  auto it = table.parent.find(to);
  if (it == table.parent.end()) return {};
  std::vector<NodeId> path{to};
  for (NodeId n = to; n != from; n = table.parent.at(n)) {
    path.push_back(table.parent.at(n));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void Network::Send(Message msg) {
  sim_->GetStats().Incr(metrics_.sent);
  if (config_.track_messages) {
    // Counted at first send, not per retransmit: this prices the protocol's
    // message complexity, not the loss schedule. Attribution prefers the
    // explicit transid stamp and falls back to the causal trace context.
    const uint64_t transid = msg.transid != 0 ? msg.transid : msg.trace.transid;
    std::lock_guard<std::mutex> lock(track_mutex_);
    ++per_tag_msgs_[msg.tag];
    if (transid != 0) ++per_txn_msgs_[transid];
  }
  Transmit(std::move(msg), 0);
}

std::map<uint64_t, uint64_t> Network::PerTxnMessages() const {
  std::lock_guard<std::mutex> lock(track_mutex_);
  return per_txn_msgs_;
}

std::map<uint32_t, uint64_t> Network::PerTagMessages() const {
  std::lock_guard<std::mutex> lock(track_mutex_);
  return per_tag_msgs_;
}

void Network::Transmit(Message msg, int attempt) {
  // Transmit always runs at the source node: the loss draw comes from the
  // source's PRNG stream and retries are source-local timers, so a message's
  // fate depends only on source-local state (plus the shared topology).
  auto path = Route(msg.src.node, msg.dst.node);
  if (path.empty() ||
      (config_.loss_probability > 0 &&
       sim_->RngFor(msg.src.node).Bernoulli(config_.loss_probability))) {
    // No route now (or the transmission was lost): the end-to-end protocol
    // retries with pacing; after kMaxRetransmits the sender is notified.
    if (attempt >= kMaxRetransmits) {
      sim_->GetStats().Incr(metrics_.undeliverable);
      if (msg.request_id != 0) {
        Message fail;
        fail.src = ProcessId{msg.dst.node, 0};
        fail.dst = Address(msg.src);
        fail.tag = kTagSendFailed;
        fail.reply_to = msg.request_id;
        fail.status = Status::Code::kPartitioned;
        auto it = nodes_.find(msg.src.node);
        if (it != nodes_.end()) {
          // Local notification at the sender's node: no network traversal.
          sim_->After(Micros(1), [deliver = it->second, fail]() { deliver(fail); });
        }
      }
      return;
    }
    sim_->GetStats().Incr(metrics_.retransmits);
    sim_->After(kRetransmitInterval,
                [this, msg = std::move(msg), attempt]() mutable {
                  Transmit(std::move(msg), attempt + 1);
                });
    return;
  }

  SimDuration latency = 0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto it = links_.find(Key(path[i], path[i + 1]));
    latency += (it != links_.end()) ? it->second.latency : kLinkLatency;
  }
  sim_->GetStats().Record(metrics_.route_hops, static_cast<int64_t>(path.size() - 1));

  NodeId dst_node = msg.dst.node;
  // End-to-end verification is split between the two endpoints so that each
  // side only touches its own node's state:
  //   * the packet itself is delivered at the destination iff the topology
  //     still connects the endpoints at arrival time (checked against the
  //     destination's routing table — reachability is symmetric);
  //   * a source-local probe fires at the same instant and, if the path is
  //     gone, treats the attempt as failed and drives the retransmit (the
  //     pre-split code ran this retransmit logic at the destination).
  // Both events see the same topology version: topology mutations at the
  // same timestamp are global events that order before node events.
  sim_->PostToNode(dst_node, latency, [this, msg, dst_node]() mutable {
    if (!Reachable(dst_node, msg.src.node)) return;  // dead packet
    sim_->GetStats().Incr(metrics_.delivered);
    auto it = nodes_.find(dst_node);
    if (it != nodes_.end()) it->second(std::move(msg));
  });
  sim_->After(latency, [this, msg = std::move(msg), attempt]() mutable {
    if (!Route(msg.src.node, msg.dst.node).empty()) return;  // delivered
    Transmit(std::move(msg), attempt + 1);
  });
}

std::map<NodeId, std::set<NodeId>> Network::ReachableSets() const {
  std::map<NodeId, std::set<NodeId>> result;
  for (const auto& [id, fn] : nodes_) {
    (void)fn;
    for (const auto& [other, fn2] : nodes_) {
      (void)fn2;
      if (id != other && Reachable(id, other)) result[id].insert(other);
    }
  }
  return result;
}

void Network::NotifyReachabilityChanges(
    const std::map<NodeId, std::set<NodeId>>& before) {
  if (!reachability_fn_) return;
  auto after = ReachableSets();
  for (const auto& [id, fn] : nodes_) {
    (void)fn;
    const auto& was = before.count(id) ? before.at(id) : std::set<NodeId>{};
    const auto& now = after.count(id) ? after.at(id) : std::set<NodeId>{};
    for (NodeId peer : was) {
      if (!now.count(peer)) reachability_fn_(id, peer, false);
    }
    for (NodeId peer : now) {
      if (!was.count(peer)) reachability_fn_(id, peer, true);
    }
  }
}

}  // namespace encompass::net
