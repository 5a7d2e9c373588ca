#include "discprocess/disc_protocol.h"

#include "common/coding.h"

namespace encompass::discprocess {

Bytes DiscRequest::Encode() const {
  Bytes out;
  PutLengthPrefixed(&out, Slice(file));
  PutLengthPrefixed(&out, Slice(key));
  PutLengthPrefixed(&out, Slice(record));
  PutLengthPrefixed(&out, Slice(field));
  PutLengthPrefixed(&out, Slice(value));
  uint8_t flags = (lock ? 1 : 0) | (inclusive ? 2 : 0);
  PutFixed8(&out, flags);
  PutFixed8(&out, static_cast<uint8_t>(undo_op));
  PutVarint64(&out, static_cast<uint64_t>(lock_timeout));
  PutVarint32(&out, max_records);
  return out;
}

Result<DiscRequest> DiscRequest::Decode(const Slice& payload) {
  Slice in = payload;
  DiscRequest req;
  uint8_t flags, op;
  uint64_t timeout;
  if (!GetLengthPrefixedString(&in, &req.file) ||
      !GetLengthPrefixedBytes(&in, &req.key) ||
      !GetLengthPrefixedBytes(&in, &req.record) ||
      !GetLengthPrefixedString(&in, &req.field) ||
      !GetLengthPrefixedString(&in, &req.value) || !GetFixed8(&in, &flags) ||
      !GetFixed8(&in, &op) || !GetVarint64(&in, &timeout)) {
    return DecodeError("disc request");
  }
  req.lock = (flags & 1) != 0;
  req.inclusive = (flags & 2) != 0;
  req.undo_op = static_cast<storage::MutationOp>(op);
  req.lock_timeout = static_cast<SimDuration>(timeout);
  if (!GetVarint32(&in, &req.max_records)) return DecodeError("disc request");
  return req;
}

Bytes SeekReply::Encode() const {
  Bytes out;
  PutLengthPrefixed(&out, Slice(key));
  PutLengthPrefixed(&out, Slice(value));
  return out;
}

Result<SeekReply> SeekReply::Decode(const Slice& payload) {
  Slice in = payload;
  SeekReply rep;
  if (!GetLengthPrefixedBytes(&in, &rep.key) ||
      !GetLengthPrefixedBytes(&in, &rep.value)) {
    return DecodeError("seek reply");
  }
  return rep;
}

Bytes ScanReply::Encode() const {
  Bytes out;
  PutFixed8(&out, at_end ? 1 : 0);
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutLengthPrefixed(&out, Slice(e.key));
    PutLengthPrefixed(&out, Slice(e.value));
  }
  return out;
}

Result<ScanReply> ScanReply::Decode(const Slice& payload) {
  Slice in = payload;
  ScanReply rep;
  uint8_t at_end;
  uint32_t n;
  if (!GetFixed8(&in, &at_end) || !GetVarint32(&in, &n)) {
    return DecodeError("scan reply");
  }
  rep.at_end = at_end != 0;
  if (static_cast<uint64_t>(n) * 2 > in.size()) {
    return DecodeError("scan count exceeds payload");
  }
  rep.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SeekReply entry;
    if (!GetLengthPrefixedBytes(&in, &entry.key) ||
        !GetLengthPrefixedBytes(&in, &entry.value)) {
      return DecodeError("scan entry");
    }
    rep.entries.push_back(std::move(entry));
  }
  return rep;
}

Bytes LockOwnersReply::Encode() const {
  Bytes out;
  PutVarint64(&out, owners.size());
  for (const Transid& t : owners) PutFixed64(&out, t.Pack());
  return out;
}

Result<LockOwnersReply> LockOwnersReply::Decode(const Slice& payload) {
  Slice in = payload;
  LockOwnersReply rep;
  uint64_t n;
  if (!GetVarint64(&in, &n)) return DecodeError("lock owners reply");
  if (n > in.size() / 8) return DecodeError("lock owner count exceeds payload");
  rep.owners.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t packed;
    if (!GetFixed64(&in, &packed)) return DecodeError("lock owners reply");
    rep.owners.push_back(Transid::Unpack(packed));
  }
  return rep;
}

void PutPlannedOp(Bytes* out, const PlannedOp& op) {
  PutFixed8(out, static_cast<uint8_t>(op.kind));
  PutFixed64(out, op.transid.Pack());
  PutLengthPrefixed(out, Slice(op.file));
  PutLengthPrefixed(out, Slice(op.key));
  PutLengthPrefixed(out, Slice(op.record));
  PutLengthPrefixed(out, Slice(op.field));
  PutFixed64(out, static_cast<uint64_t>(op.delta));
}

bool GetPlannedOp(Slice* in, PlannedOp* op) {
  uint8_t kind;
  uint64_t packed, delta;
  if (!GetFixed8(in, &kind) || !GetFixed64(in, &packed) ||
      !GetLengthPrefixedString(in, &op->file) ||
      !GetLengthPrefixedBytes(in, &op->key) ||
      !GetLengthPrefixedBytes(in, &op->record) ||
      !GetLengthPrefixedString(in, &op->field) || !GetFixed64(in, &delta) ||
      kind < static_cast<uint8_t>(PlannedOp::Kind::kInsert) ||
      kind > static_cast<uint8_t>(PlannedOp::Kind::kDelta)) {
    return false;
  }
  op->kind = static_cast<PlannedOp::Kind>(kind);
  op->transid = Transid::Unpack(packed);
  op->delta = static_cast<int64_t>(delta);
  return true;
}

Bytes PlannedBatch::Encode() const {
  Bytes out;
  PutVarint32(&out, static_cast<uint32_t>(ops.size()));
  for (const PlannedOp& op : ops) PutPlannedOp(&out, op);
  return out;
}

Result<PlannedBatch> PlannedBatch::Decode(const Slice& payload) {
  Slice in = payload;
  PlannedBatch batch;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return DecodeError("planned batch");
  if (static_cast<uint64_t>(n) * kPlannedOpMinBytes > in.size()) {
    return DecodeError("planned op count exceeds payload");
  }
  batch.ops.resize(n);
  for (PlannedOp& op : batch.ops) {
    if (!GetPlannedOp(&in, &op)) return DecodeError("planned op");
  }
  return batch;
}

Bytes PlannedBatchReply::Encode() const {
  Bytes out;
  PutVarint32(&out, static_cast<uint32_t>(results.size()));
  for (const OpResult& r : results) {
    PutFixed8(&out, static_cast<uint8_t>(r.status));
    PutLengthPrefixed(&out, Slice(r.value));
  }
  return out;
}

Result<PlannedBatchReply> PlannedBatchReply::Decode(const Slice& payload) {
  Slice in = payload;
  PlannedBatchReply rep;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return DecodeError("planned batch reply");
  if (static_cast<uint64_t>(n) * 2 > in.size()) {
    return DecodeError("planned reply count exceeds payload");
  }
  rep.results.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OpResult r;
    uint8_t code;
    if (!GetFixed8(&in, &code) || !GetLengthPrefixedBytes(&in, &r.value)) {
      return DecodeError("planned op result");
    }
    r.status = static_cast<Status::Code>(code);
    rep.results.push_back(std::move(r));
  }
  return rep;
}

Bytes TxnStateChange::Encode() const {
  Bytes out;
  PutFixed64(&out, transid.Pack());
  PutFixed8(&out, static_cast<uint8_t>(state));
  return out;
}

Result<TxnStateChange> TxnStateChange::Decode(const Slice& payload) {
  Slice in = payload;
  TxnStateChange change;
  uint64_t packed;
  uint8_t state;
  if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &state)) {
    return DecodeError("txn state change");
  }
  change.transid = Transid::Unpack(packed);
  change.state = static_cast<DiscTxnState>(state);
  return change;
}

}  // namespace encompass::discprocess
