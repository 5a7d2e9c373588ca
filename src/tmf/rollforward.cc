#include "tmf/rollforward.h"

#include <set>
#include <string>

#include "common/logging.h"

namespace encompass::tmf {

namespace {

/// Applies one committed after-image idempotently.
Status RedoApply(storage::Volume* volume, const audit::AuditRecord& rec) {
  switch (rec.op) {
    case storage::MutationOp::kInsert: {
      auto r = volume->Mutate(rec.file, storage::MutationOp::kInsert,
                              Slice(rec.key), Slice(rec.after));
      if (r.status.IsAlreadyExists()) {
        r = volume->Mutate(rec.file, storage::MutationOp::kUpdate, Slice(rec.key),
                           Slice(rec.after));
      }
      return r.status;
    }
    case storage::MutationOp::kUpdate: {
      auto r = volume->Mutate(rec.file, storage::MutationOp::kUpdate,
                              Slice(rec.key), Slice(rec.after));
      if (r.status.IsNotFound()) {
        r = volume->Mutate(rec.file, storage::MutationOp::kInsert, Slice(rec.key),
                           Slice(rec.after));
      }
      return r.status;
    }
    case storage::MutationOp::kDelete: {
      auto r = volume->Mutate(rec.file, storage::MutationOp::kDelete,
                              Slice(rec.key), Slice());
      if (r.status.IsNotFound()) return Status::Ok();  // already gone
      return r.status;
    }
  }
  return Status::InvalidArgument("bad audit op");
}

/// Disposition lookup that never inserts: a transid the plan never
/// classified falls to presumed abort.
Disposition LookupDisposition(const std::map<Transid, Disposition>& dispositions,
                              const Transid& t) {
  auto it = dispositions.find(t);
  return it == dispositions.end() ? Disposition::kUnknown : it->second;
}

}  // namespace

Result<RollforwardPlan> PlanRollforward(
    const VolumeRecoveryTask& task,
    const audit::MonitorAuditTrail* monitor_trail) {
  if (task.volume == nullptr || task.archive == nullptr ||
      task.trail == nullptr) {
    return Status::InvalidArgument("rollforward needs volume, archive, trail");
  }
  // Rebuilding without the records a purge dropped would silently lose
  // committed work: refuse a trail that no longer reaches the archive.
  const uint64_t archive_lsn = task.archive->archive_lsn;
  if (task.trail->first_lsn() > archive_lsn + 1) {
    return Status::NotFound(
        "audit trail starts at lsn " + std::to_string(task.trail->first_lsn()) +
        ", past archive lsn " + std::to_string(archive_lsn));
  }
  RollforwardPlan plan;
  plan.records = task.trail->DurableRecordsAfter(archive_lsn);
  for (const auto& rec : plan.records) {
    if (plan.dispositions.count(rec.transid)) continue;
    Disposition d = Disposition::kUnknown;
    if (monitor_trail != nullptr) {
      int r = monitor_trail->Lookup(rec.transid);
      if (r == 1) d = Disposition::kCommitted;
      else if (r == 0) d = Disposition::kAborted;
    }
    if (d == Disposition::kUnknown) plan.unresolved.push_back(rec.transid);
    plan.dispositions[rec.transid] = d;
  }
  return plan;
}

Result<RollforwardReport> ExecuteRollforward(const VolumeRecoveryTask& task,
                                             const RollforwardPlan& plan) {
  if (task.volume == nullptr || task.archive == nullptr) {
    return Status::InvalidArgument("rollforward needs volume, archive");
  }
  RollforwardReport report;
  report.redo_considered = plan.records.size();
  for (const Transid& t : plan.unresolved) {
    if (LookupDisposition(plan.dispositions, t) != Disposition::kUnknown) {
      ++report.negotiated;
    }
  }

  ENCOMPASS_RETURN_IF_ERROR(
      task.volume->RestoreFromArchive(Slice(task.archive->image)));

  std::set<Transid> committed, discarded;
  for (const auto& rec : plan.records) {
    if (LookupDisposition(plan.dispositions, rec.transid) ==
        Disposition::kCommitted) {
      ENCOMPASS_RETURN_IF_ERROR(RedoApply(task.volume, rec));
      ++report.redo_applied;
      committed.insert(rec.transid);
    } else {
      // Aborted, or unknown even after negotiation: presumed abort — the
      // updates never reappear.
      discarded.insert(rec.transid);
    }
  }
  report.txns_committed = committed.size();
  report.txns_discarded = discarded.size();

  task.volume->Flush();
  return report;
}

}  // namespace encompass::tmf
