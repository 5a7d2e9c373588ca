// ProcessPair: the NonStop fault-tolerance mechanism. Two cooperating
// instances of the same process class run in two different CPUs; the primary
// serves requests and sends checkpoints to the passive backup, which takes
// over when the primary's CPU fails. The pair's symbolic name always
// resolves to the current primary, so takeover is transparent to requesters
// (who at most see one transparent retry).

#ifndef ENCOMPASS_OS_PROCESS_PAIR_H_
#define ENCOMPASS_OS_PROCESS_PAIR_H_

#include <cassert>
#include <string>

#include "os/node.h"
#include "os/process.h"

namespace encompass::os {

/// Base class for processes that run as a NonStop pair. Subclasses override
/// the pair hooks instead of OnStart/OnMessage/OnCpuDown.
class PairedProcess : public Process {
 public:
  enum class Role { kPrimary, kBackup };

  /// Pair wiring; called by SpawnPair/AttachBackup before OnStart runs.
  void ConfigurePair(const std::string& name, Role role);
  void SetPeer(net::ProcessId peer);

  Role role() const { return role_; }
  bool IsPrimary() const { return role_ == Role::kPrimary; }
  const std::string& pair_name() const { return pair_name_; }
  net::ProcessId peer() const { return peer_; }
  bool HasBackup() const { return IsPrimary() && peer_.valid(); }

  std::string DebugName() const override {
    return pair_name_ + (IsPrimary() ? "(P)" : "(B)");
  }

  // Final overrides of the raw process hooks; subclasses use the pair hooks.
  void OnAttach() final;
  void OnStart() final;
  void OnMessage(const net::Message& msg) final;
  void OnCpuDown(int cpu) final;

  /// Used by AttachBackup: tells the primary a fresh backup has joined so it
  /// can send a full-state checkpoint.
  void NotifyBackupAttached();

 protected:
  /// Primary -> backup state delta over the interprocessor bus. No-op when
  /// there is no backup (the pair then runs exposed, like post-takeover).
  void SendCheckpoint(Bytes delta);

  // -- Pair hooks (override points) -------------------------------------------

  /// Called once from Attach on both members; register metric handles here.
  virtual void OnPairAttach() {}
  /// Called once at spawn on both members.
  virtual void OnPairStart() {}
  /// Backup side: apply a checkpoint delta from the primary.
  virtual void OnCheckpoint(const Slice& delta) { (void)delta; }
  /// Backup side: this member just became primary after the old primary's
  /// CPU failed. Complete any checkpointed in-flight work here.
  virtual void OnTakeover() {}
  /// Primary side: the backup's CPU failed — the pair now runs exposed.
  virtual void OnBackupLost() {}
  /// Primary side: a new backup joined; send it a full-state checkpoint.
  virtual void OnBackupAttached() {}
  /// Non-checkpoint message (request or one-way) addressed to this member.
  virtual void OnRequest(const net::Message& msg) { (void)msg; }
  /// Forwarded CPU-failure notice (after pair bookkeeping ran).
  virtual void OnPairCpuDown(int cpu) { (void)cpu; }

 private:
  std::string pair_name_;
  Role role_ = Role::kPrimary;
  net::ProcessId peer_;
  sim::MetricId m_checkpoints_sent_, m_checkpoints_received_;
  sim::MetricId m_takeovers_, m_backup_lost_;
};

/// Handles to the two members of a freshly spawned pair. After takeover the
/// surviving member keeps working; these raw pointers are only valid while
/// the respective CPU is up (tests re-find processes via the node).
template <typename T>
struct PairHandles {
  T* primary = nullptr;
  T* backup = nullptr;
};

/// Spawns a process-pair of T on two distinct CPUs and registers `name` to
/// the primary. Extra args are copied into both constructors, so each member
/// gets its own intact copy.
template <typename T, typename... Args>
PairHandles<T> SpawnPair(Node* node, const std::string& name, int cpu_primary,
                         int cpu_backup, const Args&... args) {
  assert(cpu_primary != cpu_backup && "pair members must live on distinct CPUs");
  PairHandles<T> handles;
  handles.primary = node->Spawn<T>(cpu_primary, args...);
  handles.backup = node->Spawn<T>(cpu_backup, args...);
  if (handles.primary != nullptr) {
    handles.primary->ConfigurePair(name, PairedProcess::Role::kPrimary);
    node->RegisterName(name, handles.primary->id().pid);
  }
  if (handles.backup != nullptr) {
    handles.backup->ConfigurePair(name, PairedProcess::Role::kBackup);
  }
  if (handles.primary != nullptr && handles.backup != nullptr) {
    handles.primary->SetPeer(handles.backup->id());
    handles.backup->SetPeer(handles.primary->id());
  }
  return handles;
}

/// Revives fault tolerance after a takeover: spawns a new backup of T on
/// `cpu` and attaches it to the (currently exposed) primary, which then gets
/// OnBackupAttached to resynchronize state.
template <typename T, typename... Args>
T* AttachBackup(Node* node, T* primary, int cpu, const Args&... args) {
  assert(primary->IsPrimary());
  assert(cpu != primary->cpu());
  T* backup = node->Spawn<T>(cpu, args...);
  if (backup == nullptr) return nullptr;
  backup->ConfigurePair(primary->pair_name(), PairedProcess::Role::kBackup);
  backup->SetPeer(primary->id());
  primary->SetPeer(backup->id());
  primary->NotifyBackupAttached();
  return backup;
}

}  // namespace encompass::os

#endif  // ENCOMPASS_OS_PROCESS_PAIR_H_
