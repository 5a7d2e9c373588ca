#include "audit/audit_process.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace encompass::audit {

Bytes EncodeAuditBatch(const std::vector<AuditRecord>& records) {
  Bytes out;
  PutVarint32(&out, static_cast<uint32_t>(records.size()));
  for (const auto& rec : records) {
    PutLengthPrefixed(&out, Slice(rec.Encode()));
  }
  return out;
}

namespace {

/// Splits a batch into its length-prefixed record bodies (views into
/// `payload`), without decoding them.
Result<std::vector<Slice>> SplitAuditBatch(const Slice& payload) {
  Slice in = payload;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return DecodeError("audit batch count");
  // Every record is length-prefixed (>= 1 byte each): a count exceeding the
  // remaining payload is malformed, and reserving it would be an allocation
  // bomb on a corrupt message.
  if (static_cast<uint64_t>(n) > in.size()) {
    return DecodeError("audit batch count exceeds payload");
  }
  std::vector<Slice> bodies;
  bodies.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice body;
    if (!GetLengthPrefixed(&in, &body)) return DecodeError("audit batch entry");
    bodies.push_back(body);
  }
  return bodies;
}

}  // namespace

Result<std::vector<AuditRecord>> DecodeAuditBatch(const Slice& payload) {
  auto bodies = SplitAuditBatch(payload);
  if (!bodies.ok()) return bodies.status();
  std::vector<AuditRecord> records;
  records.reserve(bodies->size());
  for (Slice body : *bodies) {
    auto rec = AuditRecord::Decode(&body);
    if (!rec.ok()) return rec.status();
    records.push_back(std::move(*rec));
  }
  return records;
}

void AuditProcess::OnPairAttach() {
  m_.appended = stats().RegisterCounter("audit.appended");
  m_.forces = stats().RegisterCounter("audit.forces");
  m_.forced_records = stats().RegisterCounter("audit.forced_records");
  m_.files_purged = stats().RegisterCounter("audit.files_purged");
  m_.group_commit_size = stats().RegisterHistogram("audit.group_commit_size");
}

void AuditProcess::OnRequest(const net::Message& msg) {
  // The backup is passive: it only mirrors via checkpoints. (The trail
  // itself is shared disc state, so there is nothing to mirror here beyond
  // the name registration handled by the pair base class.)
  if (!IsPrimary()) {
    Reply(msg, Status::Unavailable("backup audit process"));
    return;
  }
  switch (msg.tag) {
    case kAuditAppend: HandleAppend(msg); break;
    case kAuditForce: HandleForce(msg); break;
    case kAuditFetchTxn: HandleFetch(msg); break;
    case kAuditPurge: {
      // Purging is safe only for audit written before the last archive
      // point; the caller (operations / the archive utility) owns that
      // decision, as in real TMF.
      Slice in(msg.payload);
      uint64_t up_to_lsn;
      if (!GetFixed64(&in, &up_to_lsn)) {
        Reply(msg, Status::InvalidArgument("bad purge payload"));
        break;
      }
      size_t purged = config_.trail->Purge(up_to_lsn);
      stats().Incr(m_.files_purged, static_cast<int64_t>(purged));
      Bytes reply;
      PutVarint64(&reply, purged);
      Reply(msg, Status::Ok(), reply);
      break;
    }
    default:
      Reply(msg, Status::InvalidArgument("unknown audit tag"));
  }
}

void AuditProcess::HandleAppend(const net::Message& msg) {
  // Decode the whole batch first, so a malformed one appends nothing; the
  // trail then keeps each record's bytes exactly as they arrived.
  auto batch = DecodeAuditBatch(Slice(msg.payload));
  if (!batch.ok()) {
    LOG_WARN << DebugName() << ": bad append batch: " << batch.status().ToString();
    Reply(msg, batch.status());
    return;
  }
  auto bodies = SplitAuditBatch(Slice(msg.payload));
  for (const Slice& body : *bodies) config_.trail->AppendEncoded(body);
  stats().Incr(m_.appended, static_cast<int64_t>(batch->size()));
  if (msg.request_id != 0) Reply(msg, Status::Ok());
}

void AuditProcess::HandleForce(const net::Message& msg) {
  // Group commit: one physical write satisfies every force request that
  // arrived before it started. A request arriving while a write is already
  // in flight may cover records the running write does not, so it joins the
  // batch for the *next* write.
  waiting_.push_back(
      ForceWaiter{msg.src, msg.request_id, msg.tag, current_trace()});
  if (write_in_flight_ || gathering_) return;
  ArmForceWrite();
}

void AuditProcess::ArmForceWrite() {
  if (config_.group_commit_window > 0) {
    gathering_ = true;
    SetTimer(config_.group_commit_window, [this]() { StartForceWrite(); });
  } else {
    StartForceWrite();
  }
}

void AuditProcess::StartForceWrite() {
  gathering_ = false;
  if (waiting_.empty()) return;
  write_in_flight_ = true;
  std::vector<ForceWaiter> batch = std::move(waiting_);
  waiting_.clear();
  size_t forced = config_.trail->Force();
  stats().Incr(m_.forces);
  stats().Incr(m_.forced_records, static_cast<int64_t>(forced));
  stats().Record(m_.group_commit_size, static_cast<int64_t>(batch.size()));
  // The force is a physical sequential write; reply to the whole batch when
  // it completes — each waiter under its own causal span.
  SetTimer(config_.force_latency, [this, batch = std::move(batch)]() {
    write_in_flight_ = false;
    for (const ForceWaiter& w : batch) {
      WithTraceContext(w.trace, [this, &w]() {
        SendReply(w.requester, w.tag, w.reply_to, Status::Ok());
      });
    }
    if (!waiting_.empty()) ArmForceWrite();
  });
}

void AuditProcess::HandleFetch(const net::Message& msg) {
  Slice in(msg.payload);
  uint64_t packed;
  if (!GetFixed64(&in, &packed)) {
    Reply(msg, Status::InvalidArgument("bad fetch payload"));
    return;
  }
  auto records = config_.trail->RecordsForTransaction(Transid::Unpack(packed));
  // Images at or below the undo floor predate a volume rebuild and are not
  // reflected in the volume; backing them out would apply stale values.
  const uint64_t floor = config_.trail->undo_floor();
  if (floor != 0) {
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [floor](const AuditRecord& r) {
                                   return r.lsn <= floor;
                                 }),
                  records.end());
  }
  Reply(msg, Status::Ok(), EncodeAuditBatch(records));
}

}  // namespace encompass::audit
