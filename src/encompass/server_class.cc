#include "encompass/server_class.h"

#include "common/coding.h"
#include "common/logging.h"

namespace encompass::app {

namespace {
constexpr uint8_t kCkptPoolAdd = 1;
constexpr uint8_t kCkptPoolRemove = 2;
constexpr int kMinServers = 1;
// Queue depth that triggers creation of an additional server.
constexpr size_t kSpawnQueueDepth = 2;
// An idle server beyond kMinServers is deleted after this long.
constexpr SimDuration kIdleShutdown = Seconds(5);
constexpr SimDuration kRequestTimeout = Seconds(10);
}  // namespace

void ServerClassRouter::OnPairAttach() {
  m_.spawned = stats().RegisterCounter("serverclass.spawned");
  m_.reaped = stats().RegisterCounter("serverclass.reaped");
  m_.queue_depth = stats().RegisterHistogram("serverclass.queue_depth");
}

void ServerClassRouter::OnPairStart() {
  if (!IsPrimary()) return;
  for (int i = 0; i < kMinServers; ++i) {
    SpawnServer();
  }
}

void ServerClassRouter::EnsureReapTimer() {
  // Armed only while the class is above its floor, so an idle system
  // quiesces (and the simulation's run-to-idle terminates).
  if (reap_timer_ != 0 ||
      static_cast<int>(servers_.size()) <= kMinServers) {
    return;
  }
  reap_timer_ = SetTimer(kIdleShutdown, [this]() {
    reap_timer_ = 0;
    ReapIdleServers();
  });
}

net::Pid ServerClassRouter::SpawnServer() {
  for (size_t attempt = 0; attempt < config_.cpus.size(); ++attempt) {
    int cpu = config_.cpus[next_cpu_ % config_.cpus.size()];
    ++next_cpu_;
    if (!node()->CpuUp(cpu)) continue;
    net::Pid pid = config_.factory(node(), cpu);
    if (pid != 0) {
      servers_.push_back(ServerSlot{pid, false, sim()->Now()});
      stats().Incr(m_.spawned);
      CkptPool(pid, /*removed=*/false);
      EnsureReapTimer();
      return pid;
    }
  }
  return 0;
}

void ServerClassRouter::OnRequest(const net::Message& msg) {
  if (msg.tag != kServerRequest) return;
  if (!IsPrimary()) {
    Reply(msg, Status::Unavailable("backup server-class router"));
    return;
  }
  queue_.push_back(msg);
  stats().Record(m_.queue_depth, static_cast<int64_t>(queue_.size()));
  Dispatch();
}

void ServerClassRouter::Dispatch() {
  while (!queue_.empty()) {
    // Find an idle, live server.
    ServerSlot* idle = nullptr;
    for (auto it = servers_.begin(); it != servers_.end();) {
      if (node()->Find(it->pid) == nullptr) {
        CkptPool(it->pid, /*removed=*/true);
        it = servers_.erase(it);  // died with its CPU
        continue;
      }
      if (!it->busy && idle == nullptr) idle = &*it;
      ++it;
    }
    if (idle == nullptr) {
      // All busy: grow the class under load, else leave queued.
      if (queue_.size() >= kSpawnQueueDepth &&
          static_cast<int>(servers_.size()) < config_.max_servers) {
        if (SpawnServer() != 0) continue;
      }
      return;
    }
    net::Message request = queue_.front();
    queue_.pop_front();
    ForwardTo(idle, request);
  }
}

void ServerClassRouter::ForwardTo(ServerSlot* slot, const net::Message& request) {
  slot->busy = true;
  net::Pid pid = slot->pid;
  set_current_transid(request.transid);
  os::CallOptions opt;
  opt.timeout = kRequestTimeout;
  Call(net::Address(net::ProcessId{node()->id(), pid}), kServerRequest,
       request.payload,
       [this, pid, request](const Status& s, const net::Message& reply) {
         for (auto& slot : servers_) {
           if (slot.pid == pid) {
             slot.busy = false;
             slot.idle_since = sim()->Now();
             break;
           }
         }
         // Proxy the server's reply back to the requester.
         SendReply(request.src, request.tag, request.request_id, s,
                   reply.payload);
         Dispatch();
       },
       opt);
  set_current_transid(0);
}

void ServerClassRouter::ReapIdleServers() {
  SimTime cutoff = sim()->Now() - kIdleShutdown;
  for (auto it = servers_.begin();
       it != servers_.end() &&
       static_cast<int>(servers_.size()) > kMinServers;) {
    if (!it->busy && it->idle_since < cutoff &&
        node()->Find(it->pid) != nullptr) {
      node()->Kill(it->pid);
      CkptPool(it->pid, /*removed=*/true);
      it = servers_.erase(it);
      stats().Incr(m_.reaped);
    } else {
      ++it;
    }
  }
  EnsureReapTimer();
}

void ServerClassRouter::OnPairCpuDown(int) {
  if (!IsPrimary()) return;
  // Drop dead servers and re-dispatch queued work; in-flight requests to
  // dead servers resolve via their call timeouts.
  Dispatch();
  while (static_cast<int>(servers_.size()) < kMinServers &&
         SpawnServer() != 0) {
  }
}

void ServerClassRouter::CkptPool(net::Pid pid, bool removed) {
  if (!HasBackup()) return;
  Bytes out;
  PutFixed8(&out, removed ? kCkptPoolRemove : kCkptPoolAdd);
  PutFixed32(&out, pid);
  SendCheckpoint(std::move(out));
}

void ServerClassRouter::OnCheckpoint(const Slice& delta) {
  Slice in = delta;
  while (!in.empty()) {
    uint8_t type;
    uint32_t pid;
    if (!GetFixed8(&in, &type) || !GetFixed32(&in, &pid)) return;
    if (type == kCkptPoolAdd) {
      servers_.push_back(ServerSlot{pid, false, 0});
    } else {
      for (auto it = servers_.begin(); it != servers_.end(); ++it) {
        if (it->pid == pid) {
          servers_.erase(it);
          break;
        }
      }
    }
  }
}

void ServerClassRouter::OnTakeover() {
  // In-flight forwards died with the old primary (requesters will retry or
  // restart their transactions). Keep the surviving servers; mark all idle.
  for (auto it = servers_.begin(); it != servers_.end();) {
    if (node()->Find(it->pid) == nullptr) {
      it = servers_.erase(it);
    } else {
      it->busy = false;
      it->idle_since = sim()->Now();
      ++it;
    }
  }
  while (static_cast<int>(servers_.size()) < kMinServers &&
         SpawnServer() != 0) {
  }
  EnsureReapTimer();
}

void ServerClassRouter::OnBackupAttached() {
  for (const auto& slot : servers_) {
    CkptPool(slot.pid, /*removed=*/false);
  }
}

ServerClassRouter* SpawnServerClass(os::Node* node, ServerClassConfig config,
                                    int cpu_primary, int cpu_backup) {
  auto pair = os::SpawnPair<ServerClassRouter>(node, config.name, cpu_primary,
                                               cpu_backup, config);
  return pair.primary;
}

}  // namespace encompass::app
