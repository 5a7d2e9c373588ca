#include "discprocess/disc_process.h"

#include <cstdlib>

#include "audit/audit_process.h"
#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "storage/record.h"

namespace encompass::discprocess {

namespace {

// Checkpoint entry types.
constexpr uint8_t kCkptGrantEntry = 1;
constexpr uint8_t kCkptReleaseEntry = 2;
constexpr uint8_t kCkptAbortingEntry = 3;
constexpr uint8_t kCkptReplyEntry = 4;
constexpr uint8_t kCkptAuditPush = 6;
constexpr uint8_t kCkptAuditPop = 7;

void PutLockKey(Bytes* out, const LockKey& key) {
  PutLengthPrefixed(out, Slice(key.file));
  PutLengthPrefixed(out, Slice(key.record));
}

bool GetLockKey(Slice* in, LockKey* key) {
  return GetLengthPrefixedString(in, &key->file) &&
         GetLengthPrefixedBytes(in, &key->record);
}

// Tags lock trace events without storing strings in the ring.
uint32_t LockHash(const LockKey& key) {
  return Fnv1a(Slice(key.record), Fnv1a(Slice(key.file)));
}

}  // namespace

void DiscProcess::OnPairAttach() {
  sim::Stats& stats = this->stats();
  m_.ops = stats.RegisterCounter("disc.ops");
  m_.dedup_replays = stats.RegisterCounter("disc.dedup_replays");
  m_.dedup_inflight_drops = stats.RegisterCounter("disc.dedup_inflight_drops");
  m_.lock_waits = stats.RegisterCounter("disc.lock_waits");
  m_.lock_timeouts = stats.RegisterCounter("disc.lock_timeouts");
  m_.lock_releases = stats.RegisterCounter("disc.lock_releases");
  m_.lock_conflict_aborts = stats.RegisterCounter("lock.conflict_aborts");
  m_.lock_timeout_aborts = stats.RegisterCounter("lock.timeout_aborts");
  m_.lock_wait_time = stats.RegisterHistogram("lock.wait_time");
  m_.planned_batches = stats.RegisterCounter("disc.planned_batches");
  m_.planned_ops = stats.RegisterCounter("disc.planned_ops");
  m_.planned_rejects = stats.RegisterCounter("disc.planned_rejects");
  m_.scan_batches = stats.RegisterCounter("disc.scan_batches");
  m_.scan_records = stats.RegisterCounter("disc.scan_records");
  m_.undo_ops = stats.RegisterCounter("disc.undo_ops");
  m_.audit_records = stats.RegisterCounter("disc.audit_records");
  m_.audit_redelivery = stats.RegisterCounter("disc.audit_redelivery");
  m_.ckpt_messages = stats.RegisterCounter("disc.ckpt_messages");
  m_.ckpt_entries = stats.RegisterCounter("disc.ckpt_entries");
  m_.op_ios = stats.RegisterHistogram("disc.op_ios");
  m_.queue_depth = stats.RegisterHistogram("disc.queue_depth");
  m_.op_latency = stats.RegisterHistogram("disc.op_latency");
}

void DiscProcess::OnRequest(const net::Message& msg) {
  if (!IsPrimary()) {
    // The backup is passive; a request landing here is a routing accident
    // during the takeover window — the sender's retry will find the primary.
    Reply(msg, Status::Unavailable("backup disc process"));
    return;
  }
  if (msg.tag == kDiscTxnStateChange) {
    HandleStateChange(msg);
    return;
  }
  if (msg.tag == kDiscListLockOwners) {
    LockOwnersReply rep;
    rep.owners = locks_.Holders();
    Reply(msg, Status::Ok(), rep.Encode());
    return;
  }

  if (msg.tag == kDiscPlannedOps) {
    // Queue-lane batch: the planner's Call retries reuse the request id, and
    // after takeover the mirrored reply cache answers retried batches without
    // re-applying their mutations.
    if (AdmitRequest(msg)) HandlePlannedBatch(msg);
    return;
  }

  auto req = DiscRequest::Decode(Slice(msg.payload));
  if (!req.ok()) {
    Reply(msg, req.status());
    return;
  }
  if (AdmitRequest(msg)) HandleOperation(msg, *req);
}

bool DiscProcess::AdmitRequest(const net::Message& msg) {
  if (msg.request_id == 0) return true;
  RequestKey rk{msg.src, msg.request_id};
  auto cached = reply_cache_.find(rk);
  if (cached != reply_cache_.end()) {
    stats().Incr(m_.dedup_replays);
    SendReply(msg.src, cached->second.tag, msg.request_id,
              Status(cached->second.status, cached->second.message),
              *cached->second.payload);
    return false;
  }
  if (in_flight_.count(rk)) {
    stats().Incr(m_.dedup_inflight_drops);
    return false;
  }
  in_flight_.insert(rk);
  return true;
}

void DiscProcess::HandleOperation(const net::Message& msg, const DiscRequest& req) {
  stats().Incr(m_.ops);
  const Transid transid = Transid::Unpack(msg.transid);

  // Work for a transaction that has begun aborting is rejected — its effects
  // would be backed out anyway. Backout's own undo ops are exempt. Work for
  // an already *resolved* transaction (a zombie retransmission delivered
  // after commit/backout completed) is likewise rejected: granting it locks
  // would leak them forever.
  if (transid.valid() && msg.tag != kDiscUndo &&
      (aborting_.count(transid) || IsResolved(transid))) {
    stats().Incr(m_.lock_conflict_aborts);
    FinishWithReply(msg, Status::Aborted("transaction is aborting or resolved"),
                    {}, 0, nullptr);
    return;
  }

  // Audited files may only be modified under a transaction.
  const bool is_mutation = msg.tag == kDiscInsert || msg.tag == kDiscUpdate ||
                           msg.tag == kDiscDelete;
  if (is_mutation) {
    storage::StructuredFile* file = config_.volume->Find(req.file);
    if (file != nullptr && file->audited() && !transid.valid()) {
      FinishWithReply(msg,
                      Status::InvalidArgument(
                          "audited file requires a transaction: " + req.file),
                      {}, 0, nullptr);
      return;
    }
  }

  // Locking. Updates and deletes must hold the record lock ("TMF ensures
  // that all records updated or deleted ... have been previously locked");
  // if the application did not lock at read time the lock is acquired here.
  // Reads lock only on explicit request. Inserts auto-lock the new key
  // (known keys only; entry-sequenced appends lock after assignment).
  if (transid.valid()) {
    switch (msg.tag) {
      case kDiscRead:
        if (req.lock &&
            !EnsureLock(msg, req, transid, LockKey{req.file, req.key})) {
          return;
        }
        break;
      case kDiscUpdate:
      case kDiscDelete:
        if (!EnsureLock(msg, req, transid, LockKey{req.file, req.key})) return;
        break;
      case kDiscInsert:
        if (!req.key.empty() &&
            !EnsureLock(msg, req, transid, LockKey{req.file, req.key})) {
          return;
        }
        break;
      case kDiscLockFile:
        if (!EnsureLock(msg, req, transid, LockKey{req.file, {}})) return;
        break;
      default:
        break;
    }
  } else if (msg.tag == kDiscLockFile || (msg.tag == kDiscRead && req.lock)) {
    FinishWithReply(msg, Status::InvalidArgument("locking requires a transaction"),
                    {}, 0, nullptr);
    return;
  }

  Execute(msg, req);
}

bool DiscProcess::EnsureLock(const net::Message& msg, const DiscRequest& req,
                             const Transid& owner, LockKey key) {
  if (locks_.Holds(owner, key)) return true;
  auto result = locks_.Acquire(owner, key);
  if (result == LockManager::AcquireResult::kGranted) {
    Trace(sim::TraceEventKind::kLockAcquire, owner.Pack(),
          LockHash(key));
    CheckpointBatch batch;
    CkptGrant(&batch, owner, key);
    FlushCheckpoint(&batch);
    return true;
  }
  stats().Incr(m_.lock_waits);
  SimDuration timeout =
      req.lock_timeout > 0 ? req.lock_timeout : config_.default_lock_timeout;
  ParkRequest(msg, owner, std::move(key), timeout);
  return false;
}

void DiscProcess::ParkRequest(const net::Message& msg, const Transid& owner,
                              LockKey key, SimDuration timeout) {
  parked_.push_back(ParkedOp{msg, owner, std::move(key), 0, sim()->Now()});
  auto it = std::prev(parked_.end());
  it->timer = SetTimer(timeout, [this, it]() {
    // Deadlock detection is by timeout: abandon the wait and tell the
    // requester, which typically triggers RESTART-TRANSACTION upstream.
    stats().Incr(m_.lock_timeouts);
    stats().Incr(m_.lock_timeout_aborts);
    stats().Record(m_.lock_wait_time, sim()->Now() - it->parked_at);
    locks_.CancelWait(it->owner, it->key);
    net::Message msg = std::move(it->msg);
    std::string file = it->key.file;
    parked_.erase(it);
    FinishWithReply(msg, Status::Timeout("lock wait timeout: " + file), {}, 0,
                    nullptr);
  });
}

void DiscProcess::ResumeGranted(const std::vector<LockGrant>& grants) {
  for (const auto& grant : grants) {
    for (auto it = parked_.begin(); it != parked_.end(); ++it) {
      if (it->owner == grant.owner && it->key == grant.key) {
        CancelTimer(it->timer);
        stats().Record(m_.lock_wait_time, sim()->Now() - it->parked_at);
        net::Message msg = std::move(it->msg);
        parked_.erase(it);
        Trace(sim::TraceEventKind::kLockAcquire, grant.owner.Pack(),
              LockHash(grant.key));
        CheckpointBatch batch;
        CkptGrant(&batch, grant.owner, grant.key);
        FlushCheckpoint(&batch);
        auto req = DiscRequest::Decode(Slice(msg.payload));
        if (req.ok()) Execute(msg, *req);
        break;
      }
    }
  }
}

void DiscProcess::Execute(const net::Message& msg, const DiscRequest& req) {
  const Transid transid = Transid::Unpack(msg.transid);
  storage::Volume* vol = config_.volume;
  CheckpointBatch batch;

  switch (msg.tag) {
    case kDiscRead: {
      auto r = vol->ReadRecord(req.file, Slice(req.key));
      // A locked read of a missing record keeps the key lock (protects the
      // key for a subsequent insert) and reports NotFound.
      FinishWithReply(msg, r.status, std::move(r.value), r.disc_ios, &batch);
      return;
    }
    case kDiscSeek: {
      auto r = vol->SeekRecord(req.file, Slice(req.key), req.inclusive);
      SeekReply rep;
      rep.key = std::move(r.key);
      rep.value = std::move(r.value);
      FinishWithReply(msg, r.status, rep.Encode(), r.disc_ios, &batch);
      return;
    }
    case kDiscScan: {
      // Batched browse read: up to max_records from the given position, in
      // key order, without locking (the paper's unlocked-read mode).
      uint32_t limit = req.max_records == 0 ? 64 : req.max_records;
      if (limit > 1024) limit = 1024;
      ScanReply rep;
      int total_ios = 0;
      Bytes pos = req.key;
      bool inclusive = req.inclusive;
      while (rep.entries.size() < limit) {
        auto r = vol->SeekRecord(req.file, Slice(pos), inclusive);
        if (r.status.IsEndOfFile()) {
          rep.at_end = true;
          break;
        }
        if (!r.status.ok()) {
          FinishWithReply(msg, r.status, {}, total_ios, &batch);
          return;
        }
        total_ios += r.disc_ios;
        pos = r.key;
        inclusive = false;
        SeekReply entry;
        entry.key = std::move(r.key);
        entry.value = std::move(r.value);
        rep.entries.push_back(std::move(entry));
      }
      stats().Incr(m_.scan_batches);
      stats().Incr(m_.scan_records,
                             static_cast<int64_t>(rep.entries.size()));
      // Sequential access: charge one physical read per distinct block-sized
      // group instead of per record (sequential reads amortize).
      int charged = total_ios > 0 ? 1 + static_cast<int>(rep.entries.size() / 16)
                                  : 0;
      FinishWithReply(msg, Status::Ok(), rep.Encode(), charged, &batch);
      return;
    }
    case kDiscReadAlt: {
      auto r = vol->ReadAlternate(req.file, req.field, req.value);
      // Like a keyed read of a missing record: no record carries the value.
      if (r.status.ok() && r.value.empty()) {
        r.status = Status::NotFound("no " + req.field + " = " + req.value);
      }
      FinishWithReply(msg, r.status, std::move(r.value), r.disc_ios, &batch);
      return;
    }
    case kDiscLockFile: {
      FinishWithReply(msg, Status::Ok(), {}, 0, &batch);
      return;
    }
    case kDiscInsert: {
      auto r = MutateAudited(transid, req.file, storage::MutationOp::kInsert,
                             Slice(req.key), Slice(req.record));
      if (r.status.ok() && transid.valid() && req.key.empty()) {
        // Entry-sequenced append: lock the assigned key now. The key is
        // fresh, so the grant cannot conflict.
        locks_.ForceGrant(transid, LockKey{req.file, r.key});
        CkptGrant(&batch, transid, LockKey{req.file, r.key});
      }
      FinishWithReply(msg, r.status, std::move(r.key), r.disc_ios, &batch);
      return;
    }
    case kDiscUpdate:
    case kDiscDelete: {
      const bool update = msg.tag == kDiscUpdate;
      auto r = MutateAudited(
          transid, req.file,
          update ? storage::MutationOp::kUpdate : storage::MutationOp::kDelete,
          Slice(req.key), update ? Slice(req.record) : Slice());
      FinishWithReply(msg, r.status, {}, r.disc_ios, &batch);
      return;
    }
    case kDiscUndo: {
      auto r = vol->ApplyUndo(req.file, req.undo_op, Slice(req.key),
                              Slice(req.record));
      stats().Incr(m_.undo_ops);
      FinishWithReply(msg, r.status, {}, r.disc_ios, &batch);
      return;
    }
    default:
      FinishWithReply(msg, Status::InvalidArgument("unknown disc tag"), {}, 0,
                      &batch);
  }
}

void DiscProcess::HandlePlannedBatch(const net::Message& msg) {
  auto batch = PlannedBatch::Decode(Slice(msg.payload));
  if (!batch.ok()) {
    if (msg.request_id != 0) in_flight_.erase(RequestKey{msg.src, msg.request_id});
    Reply(msg, batch.status());
    return;
  }
  stats().Incr(m_.planned_batches);
  stats().Incr(m_.planned_ops, static_cast<int64_t>(batch->ops.size()));

  PlannedBatchReply rep;
  rep.results.reserve(batch->ops.size());
  int total_ios = 0;
  for (const PlannedOp& op : batch->ops) {
    rep.results.push_back(ExecutePlannedOp(op, &total_ios));
  }
  CheckpointBatch ckpt;
  FinishWithReply(msg, Status::Ok(), rep.Encode(), total_ios, &ckpt);
}

PlannedBatchReply::OpResult DiscProcess::ExecutePlannedOp(const PlannedOp& op,
                                                          int* disc_ios) {
  PlannedBatchReply::OpResult out;
  if (!op.transid.valid()) {
    out.status = Status::Code::kInvalidArgument;
    return out;
  }
  // A transaction already aborting or resolved (the planner lost it, or the
  // TMP auto-aborted a stalled one) must not touch the volume again: plan
  // order protects live transactions only.
  if (aborting_.count(op.transid) || IsResolved(op.transid)) {
    stats().Incr(m_.planned_rejects);
    out.status = Status::Code::kAborted;
    return out;
  }

  storage::Volume* vol = config_.volume;
  storage::MutationOp mutation = storage::MutationOp::kUpdate;  // and kDelta
  Slice after;
  Bytes image;  // kDelta: the computed after-image
  switch (op.kind) {
    case PlannedOp::Kind::kInsert:
      mutation = storage::MutationOp::kInsert;
      after = Slice(op.record);
      break;
    case PlannedOp::Kind::kUpdate:
      after = Slice(op.record);
      break;
    case PlannedOp::Kind::kDelete:
      mutation = storage::MutationOp::kDelete;
      break;
    case PlannedOp::Kind::kDelta: {
      // Read-modify-write resolved here, under plan order: by construction a
      // record's operations all ride one lane with a single batch in flight,
      // so this read cannot race another writer of the same record.
      auto r = vol->ReadRecord(op.file, Slice(op.key));
      *disc_ios += r.disc_ios;
      if (!r.status.ok()) {
        out.status = r.status.code();
        return out;
      }
      auto rec = storage::Record::Decode(Slice(r.value));
      if (!rec.ok()) {
        out.status = rec.status().code();
        return out;
      }
      const int64_t current = strtoll(rec->Get(op.field).c_str(), nullptr, 10);
      rec->Set(op.field, std::to_string(current + op.delta));
      image = rec->Encode();
      after = Slice(image);
      break;
    }
    default:
      out.status = Status::Code::kInvalidArgument;
      return out;
  }
  auto r = MutateAudited(op.transid, op.file, mutation, Slice(op.key), after);
  *disc_ios += r.disc_ios;
  out.status = r.status.code();
  if (r.status.ok() && mutation == storage::MutationOp::kInsert) {
    out.value = std::move(r.key);  // entry-sequenced files: the assigned key
  } else if (r.status.ok() && op.kind == PlannedOp::Kind::kDelta) {
    out.value = std::move(image);
  }
  return out;
}

storage::OpResult DiscProcess::MutateAudited(const Transid& transid,
                                             const std::string& file,
                                             storage::MutationOp op,
                                             const Slice& key,
                                             const Slice& after) {
  storage::OpResult result = config_.volume->Mutate(file, op, key, after);
  if (!result.status.ok() || !transid.valid() ||
      config_.audit_process.empty()) {
    return result;
  }
  storage::StructuredFile* f = config_.volume->Find(file);
  if (f == nullptr || !f->audited()) return result;
  audit::AuditRecord rec;
  rec.transid = transid;
  rec.volume = config_.volume->name();
  rec.file = file;
  rec.op = op;
  // An insert is audited under its assigned key (entry-sequenced appends).
  rec.key = op == storage::MutationOp::kInsert ? result.key : key.ToBytes();
  rec.before = result.before;
  rec.after = after.ToBytes();
  stats().Incr(m_.audit_records);
  // Unforced (the trail is forced by TMF at phase one of commit) but
  // *reliable and ordered*: the record joins a checkpointed FIFO that is
  // delivered to the AUDITPROCESS with acknowledgement and retry — a lost
  // before-image would make a later backout silently incomplete.
  Bytes encoded = rec.Encode();
  if (HasBackup()) {
    CheckpointBatch batch;
    CkptAuditPushEntry(&batch, encoded);
    FlushCheckpoint(&batch);
  }
  audit_queue_.push_back(std::move(encoded));
  PumpAuditQueue();
  return result;
}

void DiscProcess::PumpAuditQueue() {
  if (audit_in_flight_ || audit_queue_.empty() || !IsPrimary()) return;
  audit_in_flight_ = true;
  os::CallOptions opt;
  opt.timeout = Millis(500);
  opt.retries = 4;
  Call(net::Address(node()->id(), config_.audit_process), audit::kAuditAppend,
       audit::FrameAuditRecord(Slice(audit_queue_.front())),
       [this](const Status& s, const net::Message&) {
         audit_in_flight_ = false;
         if (s.ok()) {
           audit_queue_.pop_front();
           if (HasBackup()) {
             CheckpointBatch batch;
             CkptAuditPopEntry(&batch);
             FlushCheckpoint(&batch);
           }
           PumpAuditQueue();
         } else {
           // The audit pair is mid-takeover; keep the record and retry.
           stats().Incr(m_.audit_redelivery);
           SetTimer(Millis(100), [this]() { PumpAuditQueue(); });
         }
       },
       opt);
}

void DiscProcess::HandleStateChange(const net::Message& msg) {
  auto change = TxnStateChange::Decode(Slice(msg.payload));
  if (!change.ok()) {
    if (msg.request_id != 0) Reply(msg, change.status());
    return;
  }
  CheckpointBatch batch;
  switch (change->state) {
    case DiscTxnState::kAborting:
      aborting_.insert(change->transid);
      CkptAborting(&batch, change->transid);
      break;
    case DiscTxnState::kEnded:
    case DiscTxnState::kAborted: {
      // Phase two (or backout completion): release the transaction's locks
      // and resume any waiters they unblock.
      aborting_.erase(change->transid);
      MarkResolved(change->transid);
      auto grants = locks_.ReleaseAll(change->transid);
      Trace(sim::TraceEventKind::kLockRelease, change->transid.Pack(),
            static_cast<uint32_t>(grants.size()));
      CkptRelease(&batch, change->transid);
      FlushCheckpoint(&batch);
      stats().Incr(m_.lock_releases);
      ResumeGranted(grants);
      if (msg.request_id != 0) Reply(msg, Status::Ok());
      return;
    }
  }
  FlushCheckpoint(&batch);
  if (msg.request_id != 0) Reply(msg, Status::Ok());
}

void DiscProcess::FinishWithReply(const net::Message& msg, const Status& status,
                                  Bytes payload, int disc_ios,
                                  CheckpointBatch* batch) {
  RequestKey rk{msg.src, msg.request_id};
  CheckpointBatch local;
  if (batch == nullptr) batch = &local;

  // One shared copy of the payload serves the reply cache, the checkpoint
  // encoding, and the delayed reply.
  auto shared = std::make_shared<const Bytes>(std::move(payload));
  if (msg.request_id != 0) {
    CacheReply(rk, msg.tag, status, shared);
    CkptReply(batch, rk, msg.tag, status.code(), status.message(), *shared);
    in_flight_.erase(rk);
  }
  FlushCheckpoint(batch);

  stats().Record(m_.op_ios, disc_ios);
  SimDuration latency;
  if (config_.overlap_mirror_reads && disc_ios > 0) {
    // Charge from the drive model: reads take the mirror that frees first
    // (read-either).
    const SimTime now = sim()->Now();
    storage::DriveSchedule sched =
        config_.volume->ScheduleRead(now, disc_ios * kDiscIoLatency);
    stats().Record(m_.queue_depth, sched.queue_depth);
    latency = kRequestLatency + (sched.complete - now);
  } else {
    latency = kRequestLatency + disc_ios * kDiscIoLatency;
  }
  stats().Record(m_.op_latency, latency);
  net::ProcessId requester = msg.src;
  uint64_t reply_to = msg.request_id;
  uint32_t tag = msg.tag;
  if (reply_to == 0) return;
  SetTimer(latency, [this, requester, tag, reply_to, status,
                     shared = std::move(shared)]() {
    SendReply(requester, tag, reply_to, status, *shared);
  });
}

void DiscProcess::MarkResolved(const Transid& transid) {
  if (resolved_.insert(transid.Pack()).second) {
    resolved_order_.push_back(transid.Pack());
    while (resolved_order_.size() > 8192) {
      resolved_.erase(resolved_order_.front());
      resolved_order_.pop_front();
    }
  }
}

void DiscProcess::CacheReply(const RequestKey& rk, uint32_t tag,
                             const Status& status,
                             std::shared_ptr<const Bytes> payload) {
  if (reply_cache_.count(rk)) return;
  reply_cache_[rk] =
      CachedReply{tag, status.code(), status.message(), std::move(payload)};
  reply_cache_order_.push_back(rk);
  while (reply_cache_order_.size() > kReplyCacheCapacity) {
    reply_cache_.erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

void DiscProcess::CkptGrant(CheckpointBatch* batch, const Transid& owner,
                            const LockKey& key) {
  PutFixed8(&batch->delta, kCkptGrantEntry);
  PutFixed64(&batch->delta, owner.Pack());
  PutLockKey(&batch->delta, key);
  ++batch->entries;
}

void DiscProcess::CkptRelease(CheckpointBatch* batch, const Transid& owner) {
  PutFixed8(&batch->delta, kCkptReleaseEntry);
  PutFixed64(&batch->delta, owner.Pack());
  ++batch->entries;
}

void DiscProcess::CkptAborting(CheckpointBatch* batch, const Transid& owner) {
  PutFixed8(&batch->delta, kCkptAbortingEntry);
  PutFixed64(&batch->delta, owner.Pack());
  ++batch->entries;
}

void DiscProcess::CkptReply(CheckpointBatch* batch, const RequestKey& rk,
                            uint32_t tag, Status::Code status,
                            const std::string& message, const Bytes& payload) {
  PutFixed8(&batch->delta, kCkptReplyEntry);
  PutFixed16(&batch->delta, rk.first.node);
  PutFixed32(&batch->delta, rk.first.pid);
  PutFixed64(&batch->delta, rk.second);
  PutFixed32(&batch->delta, tag);
  PutFixed8(&batch->delta, static_cast<uint8_t>(status));
  PutLengthPrefixed(&batch->delta, Slice(message));
  PutLengthPrefixed(&batch->delta, Slice(payload));
  ++batch->entries;
}

void DiscProcess::CkptAuditPushEntry(CheckpointBatch* batch,
                                     const Bytes& encoded) {
  PutFixed8(&batch->delta, kCkptAuditPush);
  PutLengthPrefixed(&batch->delta, Slice(encoded));
  ++batch->entries;
}

void DiscProcess::CkptAuditPopEntry(CheckpointBatch* batch) {
  PutFixed8(&batch->delta, kCkptAuditPop);
  ++batch->entries;
}

void DiscProcess::FlushCheckpoint(CheckpointBatch* batch) {
  if (batch->entries == 0 || !HasBackup()) {
    batch->delta.clear();
    batch->entries = 0;
    return;
  }
  stats().Incr(m_.ckpt_entries, batch->entries);
  if (config_.ckpt_coalesce_window <= 0) {
    stats().Incr(m_.ckpt_messages);
    SendCheckpoint(std::move(batch->delta));
    batch->delta.clear();
    batch->entries = 0;
    return;
  }
  // Coalesce: append to the pending buffer; one message carries everything
  // accumulated when the window closes. Entry order across operations is
  // preserved, so the backup applies exactly the per-op sequence.
  pending_ckpt_.delta.insert(pending_ckpt_.delta.end(), batch->delta.begin(),
                             batch->delta.end());
  pending_ckpt_.entries += batch->entries;
  batch->delta.clear();
  batch->entries = 0;
  if (!ckpt_timer_armed_) {
    ckpt_timer_armed_ = true;
    ckpt_timer_ = SetTimer(config_.ckpt_coalesce_window, [this]() {
      ckpt_timer_armed_ = false;
      FlushPendingCheckpoint();
    });
  }
}

void DiscProcess::FlushPendingCheckpoint() {
  if (ckpt_timer_armed_) {
    CancelTimer(ckpt_timer_);
    ckpt_timer_armed_ = false;
  }
  if (pending_ckpt_.entries == 0) return;
  if (HasBackup()) {
    stats().Incr(m_.ckpt_messages);
    SendCheckpoint(std::move(pending_ckpt_.delta));
  }
  pending_ckpt_.delta.clear();
  pending_ckpt_.entries = 0;
}

void DiscProcess::OnCheckpoint(const Slice& delta) {
  Slice in = delta;
  while (!in.empty()) {
    uint8_t type;
    if (!GetFixed8(&in, &type)) return;
    switch (type) {
      case kCkptGrantEntry: {
        uint64_t packed;
        LockKey key;
        if (!GetFixed64(&in, &packed) || !GetLockKey(&in, &key)) return;
        locks_.ForceGrant(Transid::Unpack(packed), key);
        break;
      }
      case kCkptReleaseEntry: {
        uint64_t packed;
        if (!GetFixed64(&in, &packed)) return;
        Transid t = Transid::Unpack(packed);
        aborting_.erase(t);
        MarkResolved(t);
        locks_.ReleaseAll(t);
        break;
      }
      case kCkptAbortingEntry: {
        uint64_t packed;
        if (!GetFixed64(&in, &packed)) return;
        aborting_.insert(Transid::Unpack(packed));
        break;
      }
      case kCkptReplyEntry: {
        uint16_t node;
        uint32_t pid, tag;
        uint64_t rid;
        uint8_t status;
        std::string message;
        Bytes payload;
        if (!GetFixed16(&in, &node) || !GetFixed32(&in, &pid) ||
            !GetFixed64(&in, &rid) || !GetFixed32(&in, &tag) ||
            !GetFixed8(&in, &status) ||
            !GetLengthPrefixedString(&in, &message) ||
            !GetLengthPrefixedBytes(&in, &payload)) {
          return;
        }
        CacheReply(RequestKey{net::ProcessId{node, pid}, rid}, tag,
                   Status(static_cast<Status::Code>(status), std::move(message)),
                   std::make_shared<const Bytes>(std::move(payload)));
        break;
      }
      case kCkptAuditPush: {
        Bytes encoded;
        if (!GetLengthPrefixedBytes(&in, &encoded)) return;
        audit_queue_.push_back(std::move(encoded));
        break;
      }
      case kCkptAuditPop: {
        if (!audit_queue_.empty()) audit_queue_.pop_front();
        break;
      }
      default:
        return;  // unknown entry: stop parsing this delta
    }
  }
}

void DiscProcess::OnTakeover() {
  // Deliver any audit records the old primary had not yet gotten
  // acknowledged (redelivery is safe: backout and rollforward tolerate
  // duplicate images).
  audit_in_flight_ = false;
  PumpAuditQueue();
}

void DiscProcess::OnBackupAttached() {
  // Deltas coalesced for a previous backup are superseded by this full-state
  // resynchronization; drop them rather than replaying stale entries.
  if (ckpt_timer_armed_) {
    CancelTimer(ckpt_timer_);
    ckpt_timer_armed_ = false;
  }
  pending_ckpt_.delta.clear();
  pending_ckpt_.entries = 0;

  // Full-state resynchronization: replay every held lock, the aborting set,
  // and the reply cache as one checkpoint (sent immediately — a fresh backup
  // must not sit unsynchronized for a coalescing window).
  CheckpointBatch batch;
  for (const auto& [rk, cached] : reply_cache_) {
    CkptReply(&batch, rk, cached.tag, cached.status, cached.message,
              *cached.payload);
  }
  for (const auto& t : aborting_) {
    CkptAborting(&batch, t);
  }
  for (const auto& grant : locks_.AllHeld()) {
    CkptGrant(&batch, grant.owner, grant.key);
  }
  if (batch.entries > 0 && HasBackup()) {
    stats().Incr(m_.ckpt_entries, batch.entries);
    stats().Incr(m_.ckpt_messages);
    SendCheckpoint(std::move(batch.delta));
  }
  for (const auto& encoded : audit_queue_) {
    CheckpointBatch push;
    CkptAuditPushEntry(&push, encoded);
    if (HasBackup()) {
      stats().Incr(m_.ckpt_entries, push.entries);
      stats().Incr(m_.ckpt_messages);
      SendCheckpoint(std::move(push.delta));
    }
  }
}

}  // namespace encompass::discprocess
