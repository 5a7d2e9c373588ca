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
// Audit Trail), run after the node reloads; it is not a process.
//
// Two entry points:
//  * Rollforward(input) — one-shot, with negotiation supplied as a
//    synchronous callback. Suits tests and tools that can answer inline.
//  * PlanRollforward / ExecuteRollforward — the split the real recovery
//    path uses: Plan classifies every transaction against the local MAT and
//    reports the still-unknown ("ending at failure time") transids; the
//    caller negotiates those with surviving TMPs however long that takes
//    (message round-trips in simulated time), writes the answers into the
//    plan, and Execute then rebuilds the volume.

#ifndef ENCOMPASS_TMF_ROLLFORWARD_H_
#define ENCOMPASS_TMF_ROLLFORWARD_H_

#include <functional>
#include <map>
#include <vector>

#include "audit/audit_trail.h"
#include "common/result.h"
#include "storage/volume.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

/// Inputs to one volume's rollforward.
struct RollforwardInput {
  storage::Volume* volume = nullptr;          ///< target volume to rebuild
  const Bytes* archive = nullptr;             ///< archived copy of the volume
  const audit::AuditTrail* trail = nullptr;   ///< this volume's audit trail
  uint64_t archive_lsn = 0;                   ///< trail LSN at archive time
  const audit::MonitorAuditTrail* monitor_trail = nullptr;  ///< local MAT
  /// Negotiation with other nodes for transactions whose local disposition
  /// is unknown (they were in "ending" at failure time). Unknown after
  /// negotiation means the updates are discarded (presumed abort). Used by
  /// the one-shot Rollforward() only; the Plan/Execute split negotiates
  /// between the two calls instead.
  std::function<Disposition(const Transid&)> resolve_remote;
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

/// Reads the trail and classifies every transaction against the local MAT.
/// Does not touch the volume. NotFound if the trail was purged past the
/// archive (its first retained LSN is above archive_lsn + 1).
Result<RollforwardPlan> PlanRollforward(const RollforwardInput& input);

/// Rebuilds `input.volume` from the archive plus the plan's committed
/// after-images; flushes the volume (fully durable) on success.
/// `input.resolve_remote` is ignored here — negotiation already happened.
Result<RollforwardReport> ExecuteRollforward(const RollforwardInput& input,
                                             const RollforwardPlan& plan);

/// One-shot: Plan, negotiate via `input.resolve_remote` (if provided),
/// Execute.
Result<RollforwardReport> Rollforward(const RollforwardInput& input);

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_ROLLFORWARD_H_
