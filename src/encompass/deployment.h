// Deployment: operational bootstrap of an ENCOMPASS network — the piece a
// site's system manager would configure. It owns, per node, the *durable*
// hardware state (disc volumes, audit trails, the Monitor Audit Trail) that
// survives CPU and process failures, and spawns the service process-pairs
// (DISCPROCESSes, AUDITPROCESSes, BACKOUTPROCESS, TMP) on the node's CPUs.
// It also provides whole-node crash (storage drops unforced state) and
// recovery (ROLLFORWARD, then services respawn against the rebuilt discs)
// for recovery experiments.

#ifndef ENCOMPASS_ENCOMPASS_DEPLOYMENT_H_
#define ENCOMPASS_ENCOMPASS_DEPLOYMENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit_process.h"
#include "discprocess/disc_process.h"
#include "os/cluster.h"
#include "storage/partition.h"
#include "storage/volume.h"
#include "tmf/backout_process.h"
#include "tmf/commit_acceptor.h"
#include "tmf/queue_lane.h"
#include "tmf/rollforward.h"
#include "tmf/tmp_process.h"

namespace encompass::app {

/// A file to create on a volume at deployment time.
struct FileSpec {
  std::string name;
  storage::FileOrganization organization = storage::FileOrganization::kKeySequenced;
  bool audited = true;
  storage::FileSchema schema{};
};

/// A disc volume (and its DISCPROCESS pair) to deploy on a node. The volume
/// name doubles as the DISCPROCESS pair name ("$DATA1").
struct VolumeSpec {
  std::string name;
  std::vector<FileSpec> files;
  storage::VolumeConfig volume_config;
};

/// Which execution lane a node's transactions take. The lock lane is the
/// paper's path (per-record locks at the DISCPROCESS); the queue lane adds
/// a QueuePlanner pair ($QPLAN) that plans predeclared transactions into
/// epochs and executes them lock-free in plan order. Both lanes share the
/// audit trail, MAT, backout, and ROLLFORWARD.
enum class ExecLane { kLocks, kQueue };

/// One node of the deployment.
struct NodeSpec {
  net::NodeId id = 1;
  os::NodeConfig node_config;
  std::vector<VolumeSpec> volumes;
  tmf::TmpConfig tmp_config;                   // service lists filled in
  discprocess::DiscProcessConfig disc_config;  // volume/audit filled in
  audit::AuditProcessConfig audit_config;      // trail filled in
  ExecLane exec_lane = ExecLane::kLocks;       ///< kQueue also spawns $QPLAN
  tmf::QueuePlannerConfig queue_config;        // catalog/tmp filled in
};

/// Durable state of one node (survives anything except media loss).
struct NodeStorage {
  std::map<std::string, std::unique_ptr<storage::Volume>> volumes;
  std::map<std::string, std::unique_ptr<audit::AuditTrail>> trails;
  std::map<std::string, tmf::VolumeArchive> archives;  ///< by volume name
  audit::MonitorAuditTrail monitor_trail;
  /// Paxos Commit acceptor logs, one per co-located $ACCEPT.<k> pair (a
  /// node may host several when the acceptor group outnumbers the nodes).
  /// Forced: every granting mutation is charged a force latency before the
  /// acceptor replies. Durable like the MAT: DropVolatile must NOT clear
  /// them — the whole point of the acceptor votes is surviving node
  /// crashes.
  std::map<std::string, tmf::CommitAcceptorLog> acceptor_logs;
  /// Durable count of fresh TMP pair spawns on this node — the paper's
  /// crash-count analogue. Folded into TmpConfig::seq_base so no transid of
  /// an earlier incarnation is ever reissued, whether the pair came back by
  /// node recovery or by a guardian respawn on a live node.
  uint64_t tmp_incarnation = 0;

  /// Total node failure: every unforced write (data and audit) is lost.
  void DropVolatile();
};

class Deployment;

/// A deployed node: durable storage plus (re)spawnable service processes.
class NodeDeployment {
 public:
  NodeDeployment(Deployment* deployment, os::Node* node, NodeSpec spec);

  /// Spawns all service pairs. Called at bootstrap and again when node
  /// recovery has rolled the volumes forward.
  void StartServices();

  /// Archives every volume at a transaction-consistent point (flushes the
  /// volume, forces its trail, and snapshots), giving ROLLFORWARD a base to
  /// rebuild from. Call while no transactions are in flight. The new archive
  /// LSN raises the floor up to which the AUDITPROCESS may purge the trail.
  void ArchiveVolumes();

  /// Registers a process-pair for automatic repair by the node's service
  /// guardians: an exposed pair (one member lost) gets a fresh backup
  /// attached on a spare CPU; a fully dead pair is respawned (fresh state).
  void RegisterRepairable(const std::string& name,
                          std::function<void(int cpu)> attach_backup,
                          std::function<void(int cpu_a, int cpu_b)> respawn);

  /// Template convenience for RegisterRepairable: T is the pair class; the
  /// constructor arguments are captured by value and reused.
  template <typename T, typename... Args>
  void RegisterRepairablePair(const std::string& name, Args... args) {
    RegisterRepairable(name, BackupAttacher<T>(name, args...),
                       [this, name, args...](int cpu_a, int cpu_b) {
                         os::SpawnPair<T>(node_, name, cpu_a, cpu_b, args...);
                       });
  }

  /// Inspects every registered pair and repairs what failure broke. Driven
  /// by the ServiceGuardian processes (the PMON analogue); also callable
  /// directly from tests.
  void RepairServices();

  os::Node* node() const { return node_; }
  NodeStorage& storage() { return storage_; }
  const NodeSpec& spec() const { return spec_; }

  /// Current TMP primary (resolved by name), or nullptr while down.
  tmf::TmpProcess* tmp() const;
  /// Current DISCPROCESS primary for a volume, or nullptr.
  discprocess::DiscProcess* disc(const std::string& volume) const;
  /// Audit-trail name for a volume.
  static std::string TrailName(const std::string& volume) { return volume + ".AT"; }

 private:
  struct Repairable {
    std::string name;
    std::function<void(int)> attach_backup;
    std::function<void(int, int)> respawn;
  };

  /// The repair that gives pair `name` (of class T) a fresh backup on `cpu`.
  template <typename T, typename... Args>
  std::function<void(int cpu)> BackupAttacher(const std::string& name,
                                              Args... args) {
    return [this, name, args...](int cpu) {
      net::Pid pid = node_->LookupName(name);
      auto* p = pid != 0 ? dynamic_cast<T*>(node_->Find(pid)) : nullptr;
      if (p != nullptr && p->IsPrimary() && !p->HasBackup() && cpu != p->cpu()) {
        os::AttachBackup<T>(node_, p, cpu, args...);
      }
    };
  }
  /// Spawns the $TMP pair (class T) on (cpu_a, cpu_b) and registers it for
  /// repair. Every spawn of a fresh pair, the guardian's respawn included,
  /// is a new incarnation with its own transid floor.
  template <typename T>
  void StartTmp(const tmf::TmpConfig& tcfg, int cpu_a, int cpu_b);
  /// Spawns one ServiceGuardian on every alive CPU lacking one.
  void EnsureGuardians();
  /// The purge limits of `volume`'s trail (AuditProcessConfig::
  /// purge_limits): the default limits, which purge nothing, unless both the
  /// TMP primary and the volume's DISCPROCESS primary are found.
  audit::PurgeLimits PurgeLimitsFor(const std::string& volume) const;
  friend class ServiceGuardian;

  Deployment* deployment_;
  os::Node* node_;
  NodeSpec spec_;
  sim::MetricId m_pair_respawns_, m_backup_reattached_;
  NodeStorage storage_;
  std::vector<Repairable> repairables_;
  std::vector<net::Pid> guardians_;
};

/// ServiceGuardian: the PMON analogue — one per CPU. After any CPU failure
/// or reload, the surviving guardian with the lowest pid triggers service
/// repair (backup re-attachment / pair respawn) once takeovers settle.
class ServiceGuardian : public os::Process {
 public:
  explicit ServiceGuardian(NodeDeployment* nd) : nd_(nd) {}
  void OnCpuDown(int cpu) override;
  void OnCpuUp(int cpu) override;

 private:
  void ScheduleRepair();
  NodeDeployment* nd_;
};

/// The whole simulated ENCOMPASS network.
class Deployment {
 public:
  explicit Deployment(sim::Simulation* sim, net::NetworkConfig net_config = {});

  sim::Simulation* sim() const { return sim_; }
  os::Cluster& cluster() { return cluster_; }
  storage::Catalog& catalog() { return catalog_; }

  /// Creates a node, its durable storage, and its services.
  NodeDeployment* AddNode(NodeSpec spec);
  NodeDeployment* GetNode(net::NodeId id) const;

  /// Fully meshes all deployed nodes.
  void LinkAll(SimDuration latency = 0);

  /// Registers a single-partition file in the data dictionary. The physical
  /// file must exist in the target volume's FileSpec list (or be created by
  /// the caller).
  Status DefineFile(const std::string& fname, net::NodeId node,
                    const std::string& volume);
  /// Registers a partitioned file definition (physical partitions must
  /// already exist on their volumes).
  Status DefinePartitionedFile(const storage::FileDefinition& def);

  /// Total node failure: every CPU fails, the node is network-isolated, and
  /// unforced storage state is lost.
  void CrashNode(net::NodeId id);
  /// The one way back from CrashNode: reloads the node, runs ROLLFORWARD on
  /// every archived volume — negotiating "ending" transactions with
  /// surviving TMPs over the network — and only then restarts the services
  /// (so no DISCPROCESS serves pre-recovery data). A never-archived volume
  /// is not rebuilt; it comes back as the crash left it. `done` fires with
  /// the per-volume reports once the node is back in service.
  void RecoverNode(
      net::NodeId id,
      std::function<void(const std::vector<tmf::RollforwardReport>&)> done = {});

 private:
  sim::Simulation* sim_;
  sim::MetricId m_node_crashes_, m_node_restarts_;
  os::Cluster cluster_;
  storage::Catalog catalog_;
  std::map<net::NodeId, std::unique_ptr<NodeDeployment>> nodes_;
};

}  // namespace encompass::app

#endif  // ENCOMPASS_ENCOMPASS_DEPLOYMENT_H_
