// Audit records: the before/after images of logical data base record
// updates that TMF writes to distributed audit trails, plus the transaction
// completion records (commit/abort) of the Monitor Audit Trail.

#ifndef ENCOMPASS_AUDIT_AUDIT_RECORD_H_
#define ENCOMPASS_AUDIT_AUDIT_RECORD_H_

#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/transid.h"
#include "storage/file.h"

namespace encompass::audit {

/// One logical data base update: before-image (for transaction backout) and
/// after-image (for ROLLFORWARD).
struct AuditRecord {
  Transid transid;
  std::string volume;  ///< disc volume of residence ("$DATA1")
  std::string file;
  storage::MutationOp op = storage::MutationOp::kInsert;
  Bytes key;
  Bytes before;        ///< empty for inserts
  Bytes after;         ///< empty for deletes
  uint64_t lsn = 0;    ///< assigned when appended to a trail

  Bytes Encode() const;
  static Result<AuditRecord> Decode(Slice* in);
};

/// Transaction completion status recorded in the Monitor Audit Trail.
enum class Completion : uint8_t {
  kCommitted = 0,
  kAborted = 1,
};

/// Monitor Audit Trail entry. "A transaction commits at the time its commit
/// record is written to the Monitor Audit Trail."
struct CompletionRecord {
  Transid transid;
  Completion completion = Completion::kCommitted;
};

}  // namespace encompass::audit

#endif  // ENCOMPASS_AUDIT_AUDIT_RECORD_H_
