// ServerClassRouter: ENCOMPASS application control — "dynamic creation and
// deletion of application server processes to ensure good response time and
// utilization of resources as the workload ... changes" (Pathway-style
// server classes). The router runs as a NonStop process-pair: the pool
// membership is checkpointed to the backup, so a takeover keeps routing to
// the surviving servers (in-flight requests resolve via requester retries).
// The router forwards each request to an idle server (spawning up to
// max_servers under load), queues excess work, and retires idle servers
// beyond the floor of kMinServers (server_class.cc).

#ifndef ENCOMPASS_ENCOMPASS_SERVER_CLASS_H_
#define ENCOMPASS_ENCOMPASS_SERVER_CLASS_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "encompass/server.h"
#include "os/node.h"
#include "os/process_pair.h"

namespace encompass::app {

/// Configuration of one server class.
struct ServerClassConfig {
  std::string name;          ///< pair name, e.g. "$SC.TRANSFER"
  int max_servers = 8;
  /// Creates one server instance on the given CPU (returns its pid, 0 on
  /// failure). The router owns placement via `cpus`.
  std::function<net::Pid(os::Node*, int cpu)> factory;
  std::vector<int> cpus = {0, 1, 2, 3};  ///< round-robin placement
};

/// The server-class router pair.
class ServerClassRouter : public os::PairedProcess {
 public:
  explicit ServerClassRouter(ServerClassConfig config)
      : config_(std::move(config)) {}

  std::string DebugName() const override { return config_.name; }

  int server_count() const { return static_cast<int>(servers_.size()); }
  size_t queue_depth() const { return queue_.size(); }

 protected:
  void OnPairAttach() override;
  void OnPairStart() override;
  void OnRequest(const net::Message& msg) override;
  void OnCheckpoint(const Slice& delta) override;
  void OnTakeover() override;
  void OnBackupAttached() override;
  void OnPairCpuDown(int cpu) override;

 private:
  struct ServerSlot {
    net::Pid pid = 0;
    bool busy = false;
    SimTime idle_since = 0;
  };

  void Dispatch();
  net::Pid SpawnServer();
  void ForwardTo(ServerSlot* slot, const net::Message& request);
  void ReapIdleServers();
  void EnsureReapTimer();
  void CkptPool(net::Pid pid, bool removed);

  struct Metrics {
    sim::MetricId spawned, reaped;
    sim::MetricId queue_depth;  ///< histogram, sampled on every enqueue
  };

  ServerClassConfig config_;
  Metrics m_;
  std::vector<ServerSlot> servers_;
  std::deque<net::Message> queue_;
  int next_cpu_ = 0;
  uint64_t reap_timer_ = 0;
};

/// Spawns a ServerClassRouter pair named config.name on the given CPUs.
ServerClassRouter* SpawnServerClass(os::Node* node, ServerClassConfig config,
                                    int cpu_primary, int cpu_backup);

}  // namespace encompass::app

#endif  // ENCOMPASS_ENCOMPASS_SERVER_CLASS_H_
