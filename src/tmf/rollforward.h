// ROLLFORWARD: recovery from total node failure. "TMF's approach ... is
// based on occasional archived copies of audited data base files, plus an
// archive of all audit trails written since the data base files were
// archived. TMF reconstructs any files open at the time of a total node
// failure by using the after-images from the audit trail to reapply the
// updates of committed transactions. ROLLFORWARD negotiates with other
// nodes of the network about transactions which were in 'ending' state at
// the time of the node failure."
//
// This is a utility over durable objects (archives, trails, the Monitor
// Audit Trail), run after the node reloads; it is not a process. Plan
// classifies every transaction against the local MAT and reports the
// still-unknown ("ending at failure time") transids; the caller
// (NodeRecoveryProcess) negotiates those with surviving TMPs, writes the
// answers into the plan, and Execute then rebuilds the volume.

#ifndef ENCOMPASS_TMF_ROLLFORWARD_H_
#define ENCOMPASS_TMF_ROLLFORWARD_H_

#include <map>
#include <vector>

#include "audit/audit_trail.h"
#include "common/result.h"
#include "storage/volume.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

/// An archived copy of one volume, the base ROLLFORWARD rebuilds from.
/// `archive_lsn` is the one record of the volume's archive LSN: ROLLFORWARD
/// replays the trail after it, and the AUDITPROCESS purges nothing above it.
struct VolumeArchive {
  Bytes image;               ///< Volume::Archive() snapshot
  uint64_t archive_lsn = 0;  ///< the volume trail's LSN at archive time
};

/// One volume to roll forward.
struct VolumeRecoveryTask {
  storage::Volume* volume = nullptr;  ///< target volume to rebuild
  /// This volume's audit trail. Mutable: recovery raises its undo floor
  /// once the volume is rebuilt (pre-rebuild images must never feed a later
  /// backout).
  audit::AuditTrail* trail = nullptr;
  const VolumeArchive* archive = nullptr;
};

/// Classification of the trail against the local MAT, ready to execute once
/// every negotiable disposition has been settled (or presumed aborted).
struct RollforwardPlan {
  /// Durable after-images past the archive LSN, in trail order.
  std::vector<audit::AuditRecord> records;
  /// Disposition per transid appearing in `records`. Plan fills this from
  /// the local MAT; the caller overwrites kUnknown entries with negotiated
  /// answers before Execute. Execute treats a transid absent from this map
  /// (never classified — e.g. records edge cases) as kUnknown: presumed
  /// abort, never a default-inserted entry that skews the accounting.
  std::map<Transid, Disposition> dispositions;
  /// Transids still kUnknown after local classification — the "ending
  /// state" set ROLLFORWARD negotiates with other nodes.
  std::vector<Transid> unresolved;
};

/// What a rollforward run did.
struct RollforwardReport {
  size_t redo_considered = 0;   ///< durable after-images since the archive
  size_t redo_applied = 0;      ///< images of committed transactions applied
  size_t txns_committed = 0;    ///< distinct committed transactions replayed
  size_t txns_discarded = 0;    ///< distinct aborted/unknown transactions
  /// Dispositions that were locally unknown and got a *definite* answer
  /// (committed or aborted) from negotiation. Negotiation attempts that
  /// still came back unknown are not counted — those transactions fall to
  /// presumed abort and appear in txns_discarded only.
  size_t negotiated = 0;
};

/// Reads the trail and classifies every transaction against `monitor_trail`,
/// the local MAT (none: every transaction is unresolved). Does not touch the
/// volume. NotFound if the trail was purged past the archive (its first
/// retained LSN is above archive_lsn + 1).
Result<RollforwardPlan> PlanRollforward(
    const VolumeRecoveryTask& task,
    const audit::MonitorAuditTrail* monitor_trail);

/// Rebuilds `task.volume` from the archive plus the plan's committed
/// after-images; flushes the volume (fully durable) on success.
Result<RollforwardReport> ExecuteRollforward(const VolumeRecoveryTask& task,
                                             const RollforwardPlan& plan);

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_ROLLFORWARD_H_
