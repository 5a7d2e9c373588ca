// The paper's distributed data base application (Section "A Distributed
// Data Base Application", Figure 4): Tandem Manufacturing's four-site
// system. Each node holds a *copy* of the global files (Item Master, Bill
// of Materials, Purchase Order Header) and its own local files (Stock,
// Work-in-Progress, Transaction History, PO Detail).
//
// Design compromise reproduced here: replica consistency is traded for
// node autonomy. Reads always use the local copy. Each global record has a
// *master node* (stored in the record); an update runs as a TMF transaction
// at the master, which updates the master copy and enqueues deferred
// updates for the other copies in a local *suspense file*. A dedicated
// *suspense monitor* process drains the suspense file in order, sending
// each deferred update (in its own TMF transaction that also deletes the
// suspense entry) to the non-master node when that node is accessible.
// When a partition heals and all accumulated updates are applied, the
// copies converge.

#ifndef ENCOMPASS_APPS_MANUFACTURING_MANUFACTURING_H_
#define ENCOMPASS_APPS_MANUFACTURING_MANUFACTURING_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "encompass/deployment.h"
#include "encompass/server.h"
#include "encompass/server_class.h"

namespace encompass::apps::manufacturing {

/// The global (replicated) files of Figure 4.
extern const std::vector<std::string> kGlobalFiles;
/// The local (per-site) files of Figure 4.
extern const std::vector<std::string> kLocalFiles;

/// Catalog/physical name of node `n`'s copy of a file.
std::string CopyName(const std::string& file, net::NodeId n);
/// Name of node `n`'s suspense file.
std::string SuspenseName(net::NodeId n);
/// Name of node `n`'s manufacturing volume.
std::string MfgVolume(net::NodeId n);
/// Name of node `n`'s global-update server class.
std::string GlobalServerClass();

/// Creates the manufacturing volumes/files on already-added nodes and
/// registers every copy in the catalog. Call after Deployment::AddNode for
/// each node in `nodes`.
Status DeployManufacturing(app::Deployment* deploy,
                           const std::vector<net::NodeId>& nodes);

/// Seeds one global record (value + master) on every node's copy, directly
/// into the volumes (setup convenience).
void SeedGlobalRecord(app::Deployment* deploy,
                      const std::vector<net::NodeId>& nodes,
                      const std::string& file, const std::string& key,
                      const std::string& value, net::NodeId master);

/// Reads node `n`'s copy of a global record's "val" field straight from the
/// volume (verification helper). Empty optional if missing.
std::optional<std::string> CopyValue(app::Deployment* deploy, net::NodeId n,
                                     const std::string& file,
                                     const std::string& key);

/// Number of queued deferred updates in node `n`'s suspense file.
size_t SuspenseDepth(app::Deployment* deploy, net::NodeId n);

/// True when every node's copy of file/key carries the same "val".
bool Converged(app::Deployment* deploy, const std::vector<net::NodeId>& nodes,
               const std::string& file, const std::string& key);

/// The global-file application server. Ops (request = storage::Record):
///   gread   {file,key}             read the local copy
///   gupdate {file,key,val}         update via the record's master node
///   dupdate {file,key,val}         apply a deferred update to the local copy
///   lupdate {file,key,val}         update a local (non-replicated) file
///   lread   {file,key}             read a local file
class MfgServer : public app::ServerProcess {
 public:
  MfgServer(const storage::Catalog* catalog, std::vector<net::NodeId> nodes)
      : ServerProcess(catalog), nodes_(std::move(nodes)) {}

 protected:
  void HandleRequest(const net::Message& msg) override;

 private:
  void HandleGlobalUpdate(const net::Message& msg, const storage::Record& req);
  void MasterApply(const net::Message& msg, const storage::Record& req,
                   const storage::Record& current);
  /// Enqueues deferred updates for every non-master copy, one at a time
  /// (the suspense sequence counter serializes the order).
  void EnqueueDeferred(const net::Message& msg, const storage::Record& req,
                       const std::string& master, std::vector<net::NodeId> rest);

  std::vector<net::NodeId> nodes_;
};

/// Registers the MfgServer class on a node.
app::ServerClassRouter* AddMfgServerClass(app::Deployment* deploy,
                                          net::NodeId node,
                                          const std::vector<net::NodeId>& nodes);

/// Configuration of the suspense monitor.
struct SuspenseMonitorConfig {
  std::vector<net::NodeId> nodes;
  SimDuration scan_interval = Millis(250);
};

/// The suspense monitor: "a dedicated process ... scans the suspense file
/// looking for work to do." One per node; drains deferred updates in
/// suspense-file order to each accessible node.
class SuspenseMonitor : public os::Process {
 public:
  explicit SuspenseMonitor(const storage::Catalog* catalog,
                           SuspenseMonitorConfig config)
      : catalog_(catalog), config_(std::move(config)) {}

  void OnStart() override;
  void OnNodeDown(net::NodeId peer) override { unreachable_.insert(peer); }
  void OnNodeUp(net::NodeId peer) override {
    unreachable_.erase(peer);
    if (!scanning_) Scan();
  }

  uint64_t applied() const { return applied_; }

 private:
  void Scan();
  /// Processes the first pending entry at or after `from_key`; reschedules.
  void ProcessNext(const Bytes& from_key);
  void ApplyEntry(const Bytes& entry_key, const storage::Record& entry);
  void FinishScan();

  const storage::Catalog* catalog_;
  SuspenseMonitorConfig config_;
  std::unique_ptr<tmf::FileSystem> fs_;
  std::set<net::NodeId> unreachable_;
  bool scanning_ = false;
  uint64_t applied_ = 0;
  sim::MetricId m_deferred_applied_;
};

/// Spawns a suspense monitor on the node (CPU 1 by convention).
SuspenseMonitor* AddSuspenseMonitor(app::Deployment* deploy, net::NodeId node,
                                    const std::vector<net::NodeId>& nodes,
                                    SimDuration scan_interval = Millis(250));

}  // namespace encompass::apps::manufacturing

#endif  // ENCOMPASS_APPS_MANUFACTURING_MANUFACTURING_H_
