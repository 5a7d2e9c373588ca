#include "audit/audit_record.h"

#include "common/coding.h"

namespace encompass::audit {

Bytes AuditRecord::Encode() const {
  Bytes out;
  PutFixed64(&out, transid.Pack());
  PutLengthPrefixed(&out, Slice(volume));
  PutLengthPrefixed(&out, Slice(file));
  PutFixed8(&out, static_cast<uint8_t>(op));
  PutLengthPrefixed(&out, Slice(key));
  PutLengthPrefixed(&out, Slice(before));
  PutLengthPrefixed(&out, Slice(after));
  PutVarint64(&out, lsn);
  return out;
}

Result<AuditRecord> AuditRecord::Decode(Slice* in) {
  AuditRecord rec;
  uint64_t packed;
  uint8_t op_byte;
  if (!GetFixed64(in, &packed) || !GetLengthPrefixedString(in, &rec.volume) ||
      !GetLengthPrefixedString(in, &rec.file) || !GetFixed8(in, &op_byte) ||
      !GetLengthPrefixedBytes(in, &rec.key) ||
      !GetLengthPrefixedBytes(in, &rec.before) ||
      !GetLengthPrefixedBytes(in, &rec.after) || !GetVarint64(in, &rec.lsn)) {
    return DecodeError("audit record");
  }
  rec.transid = Transid::Unpack(packed);
  rec.op = static_cast<storage::MutationOp>(op_byte);
  return rec;
}

}  // namespace encompass::audit
