#include "encompass/deployment.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "tmf/paxos_tmp.h"
#include "tmf/recovery.h"

namespace encompass::app {

void NodeStorage::DropVolatile() {
  for (auto& [name, volume] : volumes) {
    (void)name;
    volume->DropVolatile();
  }
  for (auto& [name, trail] : trails) {
    (void)name;
    trail->DropVolatile();
  }
}

NodeDeployment::NodeDeployment(Deployment* deployment, os::Node* node,
                               NodeSpec spec)
    : deployment_(deployment), node_(node), spec_(std::move(spec)) {
  sim::Stats& stats = node_->sim()->GetStats();
  m_pair_respawns_ = stats.RegisterCounter("deploy.pair_respawns");
  m_backup_reattached_ = stats.RegisterCounter("deploy.backup_reattached");
  for (const auto& vspec : spec_.volumes) {
    auto volume = std::make_unique<storage::Volume>(vspec.name,
                                                    vspec.volume_config);
    volume->BindStats(&node_->sim()->GetStats());
    for (const auto& fspec : vspec.files) {
      storage::FileOptions opt;
      opt.audited = fspec.audited;
      opt.schema = fspec.schema;
      Status s = volume->CreateFile(fspec.name, fspec.organization, opt);
      assert(s.ok());
      (void)s;
    }
    storage_.volumes[vspec.name] = std::move(volume);
    storage_.trails[TrailName(vspec.name)] =
        std::make_unique<audit::AuditTrail>(TrailName(vspec.name));
  }
}

template <typename T>
void NodeDeployment::StartTmp(const tmf::TmpConfig& tcfg, int cpu_a, int cpu_b) {
  // Incarnation n floors its transid sequence at n << 32, past everything
  // an earlier one could have issued, live transactions included (seq is 40
  // bits; 32 bits of headroom per incarnation).
  auto config = [tcfg](uint64_t incarnation) {
    tmf::TmpConfig c = tcfg;
    c.seq_base = incarnation << 32;
    return c;
  };
  // A fresh pair has no volatile state: it is a new incarnation.
  auto spawn = [this, config](int a, int b) {
    // An lvalue: SpawnPair hands the same arguments to both members.
    const tmf::TmpConfig fresh = config(storage_.tmp_incarnation++);
    os::SpawnPair<T>(node_, "$TMP", a, b, fresh);
  };
  spawn(cpu_a, cpu_b);
  // A backup joins the running incarnation; the primary's checkpoint then
  // brings its counter up to date.
  RegisterRepairable(
      "$TMP",
      [this, config](int cpu) {
        BackupAttacher<T>("$TMP", config(storage_.tmp_incarnation - 1))(cpu);
      },
      spawn);
}

void NodeDeployment::StartServices() {
  const int cpus = spec_.node_config.num_cpus;
  assert(cpus >= 2 && "a NonStop node needs at least two processors");
  repairables_.clear();
  guardians_.clear();
  int next_cpu = 0;
  auto two_cpus = [&](int* a, int* b) {
    *a = next_cpu % cpus;
    *b = (next_cpu + 1) % cpus;
    ++next_cpu;
  };

  // One AUDITPROCESS + one DISCPROCESS pair per volume.
  std::vector<std::string> disc_names, audit_names;
  for (const auto& vspec : spec_.volumes) {
    const std::string audit_name = "$AUD." + vspec.name;
    audit::AuditProcessConfig acfg = spec_.audit_config;
    acfg.trail = storage_.trails.at(TrailName(vspec.name)).get();
    acfg.purge_limits = [this, volume = &vspec.name]() {
      return PurgeLimitsFor(*volume);
    };
    int a, b;
    two_cpus(&a, &b);
    os::SpawnPair<audit::AuditProcess>(node_, audit_name, a, b, acfg);
    RegisterRepairablePair<audit::AuditProcess>(audit_name, acfg);
    audit_names.push_back(audit_name);

    discprocess::DiscProcessConfig dcfg = spec_.disc_config;
    dcfg.volume = storage_.volumes.at(vspec.name).get();
    dcfg.audit_process = audit_name;
    two_cpus(&a, &b);
    os::SpawnPair<discprocess::DiscProcess>(node_, vspec.name, a, b, dcfg);
    RegisterRepairablePair<discprocess::DiscProcess>(vspec.name, dcfg);
    disc_names.push_back(vspec.name);
  }

  // BACKOUTPROCESS.
  tmf::BackoutConfig bcfg;
  bcfg.audit_processes = audit_names;
  int a, b;
  two_cpus(&a, &b);
  os::SpawnPair<tmf::BackoutProcess>(node_, "$BACKOUT", a, b, bcfg);
  RegisterRepairablePair<tmf::BackoutProcess>("$BACKOUT", bcfg);

  // TMP.
  tmf::TmpConfig tcfg = spec_.tmp_config;
  tcfg.disc_processes = disc_names;
  tcfg.audit_processes = audit_names;
  tcfg.backout_process = "$BACKOUT";
  tcfg.monitor_trail = &storage_.monitor_trail;
  // The commit protocol picks the TMP class, once, here. Paxos Commit also
  // hands the TMP direct pointers to the $ACCEPT.<k> logs living on this
  // node (created here, spawned with the acceptor pairs below — std::map
  // node pointers are stable). The logs are durable NodeStorage, so they
  // survive pair takeover and node recovery alike; each respawn re-derives
  // the same pointers.
  two_cpus(&a, &b);
  if (tcfg.commit_protocol == tmf::CommitProtocol::kPaxos) {
    // The vote tally, the reclaim masks and the home's vote deposit are
    // 32-bit masks over the acceptor group.
    const size_t group = tcfg.acceptor_endpoints.size();
    if (group == 0 || group > 32) {
      fprintf(stderr, "paxos commit needs 1 to 32 acceptor endpoints, got %zu\n",
              group);
      std::abort();
    }
    for (size_t k = 0; k < group; ++k) {
      const auto& [accept_node, accept_name] = tcfg.acceptor_endpoints[k];
      if (accept_node != node_->id()) continue;
      tcfg.colocated_acceptors.push_back(
          {k, &storage_.acceptor_logs[accept_name]});
    }
    StartTmp<tmf::PaxosTmp>(tcfg, a, b);
  } else {
    StartTmp<tmf::TmpProcess>(tcfg, a, b);
  }

  // Paxos Commit acceptors: the $ACCEPT.<k> pairs the endpoint list places
  // on this node. Each pair keeps its own durable log and knows its tally
  // index. Plain 2PC (the default) spawns nothing here.
  for (const auto& ca : tcfg.colocated_acceptors) {
    const std::string& accept_name = tcfg.acceptor_endpoints[ca.index].second;
    tmf::CommitAcceptorConfig ccfg;
    ccfg.log = ca.log;
    ccfg.index = static_cast<uint8_t>(ca.index);
    two_cpus(&a, &b);
    os::SpawnPair<tmf::CommitAcceptor>(node_, accept_name, a, b, ccfg);
    RegisterRepairablePair<tmf::CommitAcceptor>(accept_name, ccfg);
  }

  // Queue execution lane: the planner pair rides the same spawn/repair
  // lifecycle as the other services, so node recovery brings it back.
  if (spec_.exec_lane == ExecLane::kQueue) {
    tmf::QueuePlannerConfig qcfg = spec_.queue_config;
    qcfg.catalog = &deployment_->catalog();
    qcfg.tmp_process = "$TMP";
    two_cpus(&a, &b);
    os::SpawnPair<tmf::QueuePlanner>(node_, "$QPLAN", a, b, qcfg);
    RegisterRepairablePair<tmf::QueuePlanner>("$QPLAN", qcfg);
  }

  EnsureGuardians();
}

void NodeDeployment::ArchiveVolumes() {
  for (const auto& vspec : spec_.volumes) {
    storage::Volume* volume = storage_.volumes.at(vspec.name).get();
    audit::AuditTrail* trail = storage_.trails.at(TrailName(vspec.name)).get();
    volume->Flush();
    trail->Force();
    tmf::VolumeArchive archive;
    archive.image = volume->Archive();
    archive.archive_lsn = trail->next_lsn() - 1;
    storage_.archives[vspec.name] = std::move(archive);
  }
}

audit::PurgeLimits NodeDeployment::PurgeLimitsFor(
    const std::string& volume) const {
  audit::PurgeLimits limits;
  const tmf::TmpProcess* tmp = this->tmp();
  const discprocess::DiscProcess* disc = this->disc(volume);
  if (tmp == nullptr || !tmp->IsPrimary() || disc == nullptr ||
      !disc->IsPrimary()) {
    return limits;
  }
  auto it = storage_.archives.find(volume);
  if (it != storage_.archives.end()) limits.up_to_lsn = it->second.archive_lsn;
  // Live: the TMP tracks it, or it holds a lock at the volume (an orphan
  // lock the TMP's sweep has not yet resolved).
  limits.live = [tmp, disc](const Transid& t) {
    tmf::TxnState state;
    return tmp->GetTxnState(t, &state) || disc->locks().HoldsAny(t);
  };
  return limits;
}

void NodeDeployment::RegisterRepairable(const std::string& name,
                                        std::function<void(int cpu)> attach_backup,
                                        std::function<void(int, int)> respawn) {
  repairables_.push_back(
      Repairable{name, std::move(attach_backup), std::move(respawn)});
}

void NodeDeployment::EnsureGuardians() {
  // Exactly one guardian per alive CPU: any single-CPU failure leaves at
  // least one to drive the repair.
  for (auto it = guardians_.begin(); it != guardians_.end();) {
    if (node_->Find(*it) == nullptr) it = guardians_.erase(it);
    else ++it;
  }
  for (int cpu = 0; cpu < spec_.node_config.num_cpus; ++cpu) {
    if (!node_->CpuUp(cpu)) continue;
    bool covered = false;
    for (net::Pid pid : guardians_) {
      os::Process* p = node_->Find(pid);
      if (p != nullptr && p->cpu() == cpu) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      auto* g = node_->Spawn<ServiceGuardian>(cpu, this);
      if (g != nullptr) guardians_.push_back(g->id().pid);
    }
  }
}

void NodeDeployment::RepairServices() {
  auto pick_cpu = [this](int avoid) {
    for (int cpu = 0; cpu < spec_.node_config.num_cpus; ++cpu) {
      if (cpu != avoid && node_->CpuUp(cpu)) return cpu;
    }
    return -1;
  };
  for (const auto& service : repairables_) {
    net::Pid pid = node_->LookupName(service.name);
    if (pid == 0 || node_->Find(pid) == nullptr) {
      // Both members died (a multiple-module failure): respawn the pair
      // with fresh state. Transactions with state on the old pair resolve
      // through timeouts, backout, and — for data — ROLLFORWARD.
      int a = pick_cpu(-1);
      int b = pick_cpu(a);
      if (a >= 0 && b >= 0) {
        node_->sim()->GetStats().Incr(m_pair_respawns_);
        service.respawn(a, b);
      }
      continue;
    }
    auto* p = dynamic_cast<os::PairedProcess*>(node_->Find(pid));
    if (p != nullptr && p->IsPrimary() && !p->HasBackup()) {
      int cpu = pick_cpu(p->cpu());
      if (cpu >= 0) {
        node_->sim()->GetStats().Incr(m_backup_reattached_);
        service.attach_backup(cpu);
      }
    }
  }
  EnsureGuardians();
}

void ServiceGuardian::OnCpuDown(int) { ScheduleRepair(); }
void ServiceGuardian::OnCpuUp(int) { ScheduleRepair(); }

void ServiceGuardian::ScheduleRepair() {
  // Delay past the regroup/takeover window, then let exactly one guardian
  // (the lowest surviving pid) act.
  SetTimer(Millis(50), [this]() {
    for (net::Pid pid : nd_->guardians_) {
      os::Process* p = nd_->node_->Find(pid);
      if (p != nullptr) {
        if (pid == id().pid) nd_->RepairServices();
        return;
      }
    }
  });
}

tmf::TmpProcess* NodeDeployment::tmp() const {
  net::Pid pid = node_->LookupName("$TMP");
  return pid == 0 ? nullptr : static_cast<tmf::TmpProcess*>(node_->Find(pid));
}

discprocess::DiscProcess* NodeDeployment::disc(const std::string& volume) const {
  net::Pid pid = node_->LookupName(volume);
  return pid == 0 ? nullptr
                  : static_cast<discprocess::DiscProcess*>(node_->Find(pid));
}

Deployment::Deployment(sim::Simulation* sim, net::NetworkConfig net_config)
    : sim_(sim),
      m_node_crashes_(sim->GetStats().RegisterCounter("deploy.node_crashes")),
      m_node_restarts_(sim->GetStats().RegisterCounter("deploy.node_restarts")),
      cluster_(sim, net_config) {}

NodeDeployment* Deployment::AddNode(NodeSpec spec) {
  os::Node* node = cluster_.AddNode(spec.id, spec.node_config);
  auto nd = std::make_unique<NodeDeployment>(this, node, std::move(spec));
  NodeDeployment* raw = nd.get();
  nodes_[node->id()] = std::move(nd);
  raw->StartServices();
  return raw;
}

NodeDeployment* Deployment::GetNode(net::NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void Deployment::LinkAll(SimDuration latency) {
  std::vector<net::NodeId> ids;
  for (const auto& [id, nd] : nodes_) {
    (void)nd;
    ids.push_back(id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      cluster_.Link(ids[i], ids[j], latency);
    }
  }
}

Status Deployment::DefineFile(const std::string& fname, net::NodeId node,
                              const std::string& volume) {
  NodeDeployment* nd = GetNode(node);
  if (nd == nullptr) return Status::NotFound("no such node");
  storage::Volume* vol = nd->storage().volumes.count(volume)
                             ? nd->storage().volumes.at(volume).get()
                             : nullptr;
  if (vol == nullptr || vol->Find(fname) == nullptr) {
    return Status::NotFound("file not deployed on " + volume);
  }
  storage::FileDefinition def;
  def.name = fname;
  def.organization = vol->Find(fname)->organization();
  def.audited = vol->Find(fname)->audited();
  def.schema = vol->Find(fname)->schema();
  def.partitions = storage::PartitionMap(node, volume);
  return catalog_.DefineFile(std::move(def));
}

Status Deployment::DefinePartitionedFile(const storage::FileDefinition& def) {
  return catalog_.DefineFile(def);
}

void Deployment::CrashNode(net::NodeId id) {
  NodeDeployment* nd = GetNode(id);
  if (nd == nullptr) return;
  cluster_.CrashNode(id);
  // Main memory (caches, unforced audit buffers) is gone.
  nd->storage().DropVolatile();
  sim_->GetStats().Incr(m_node_crashes_);
}

void Deployment::RecoverNode(
    net::NodeId id,
    std::function<void(const std::vector<tmf::RollforwardReport>&)> done) {
  NodeDeployment* nd = GetNode(id);
  if (nd == nullptr) return;
  cluster_.ReloadNode(id);
  sim_->GetStats().Incr(m_node_restarts_);

  tmf::NodeRecoveryConfig rcfg;
  for (const auto& vspec : nd->spec().volumes) {
    auto it = nd->storage().archives.find(vspec.name);
    if (it == nd->storage().archives.end()) continue;  // never archived
    tmf::VolumeRecoveryTask task;
    task.volume = nd->storage().volumes.at(vspec.name).get();
    task.trail = nd->storage().trails.at(NodeDeployment::TrailName(vspec.name)).get();
    task.archive = &it->second;
    rcfg.tasks.push_back(task);
  }
  rcfg.monitor_trail = &nd->storage().monitor_trail;
  // Deterministic, seed-derived retry jitter: bit-identical replays per
  // campaign seed, de-synchronised across recovering nodes.
  rcfg.jitter_seed = sim_->seed() ^ (static_cast<uint64_t>(id) << 32) ^ 1;
  const tmf::TmpConfig& tcfg = nd->spec().tmp_config;
  if (tcfg.commit_protocol == tmf::CommitProtocol::kPaxos) {
    rcfg.acceptor_endpoints = tcfg.acceptor_endpoints;
  }
  os::Node* node = nd->node();
  rcfg.on_done = [nd, node, done = std::move(done)](
                     const std::vector<tmf::RollforwardReport>& reports) {
    // Services start only now: no DISCPROCESS ever serves pre-ROLLFORWARD
    // data, and the respawned TMP answers in-doubt queries from the MAT the
    // recovery just completed.
    nd->StartServices();
    if (done) done(reports);
    // The recovery process's job is over; release its slot. Deferred: we
    // are running inside its own callback.
    net::Pid self = node->LookupName("$RECOVER");
    if (self != 0) {
      node->sim()->After(0, [node, self]() { node->Kill(self); });
    }
  };
  auto* recover = node->Spawn<tmf::NodeRecoveryProcess>(0, rcfg);
  if (recover != nullptr) node->RegisterName("$RECOVER", recover->id().pid);
}

}  // namespace encompass::app
