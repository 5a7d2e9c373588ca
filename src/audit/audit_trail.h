// AuditTrail: "a numbered sequence of disc files whose ... creation and
// purging is managed by TMF". Like a Volume, an AuditTrail is durable
// hardware state that outlives the processes writing it — but appended
// records are volatile until forced to disc (the force happens during phase
// one of commit). On total node failure the unforced suffix is lost.
//
// Each audit file is one contiguous byte segment holding its records in
// AuditRecord::Encode form, back to back, plus the end offset of each
// record. The bytes are the ones the AUDITPROCESS received, so a record is
// kept once and never re-encoded; readers decode on demand. A record's LSN
// is its position — the file's first LSN plus its index — which holds
// because Append hands out LSNs consecutively and DropVolatile only
// truncates the suffix. A file is trimmed to its size when the next one
// starts, which happens at `records_per_file` records or when the segment
// would outgrow its 32-bit offsets.

#ifndef ENCOMPASS_AUDIT_AUDIT_TRAIL_H_
#define ENCOMPASS_AUDIT_AUDIT_TRAIL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/audit_record.h"

namespace encompass::audit {

/// Configuration of one audit trail.
struct AuditTrailConfig {
  size_t records_per_file = 4096;  ///< audit file (segment) capacity
};

/// Durable, numbered sequence of audit files holding AuditRecords.
class AuditTrail {
 public:
  explicit AuditTrail(std::string name, AuditTrailConfig config = {});

  const std::string& name() const { return name_; }

  /// Appends one encoded record (volatile until Force). Returns the assigned
  /// LSN (monotone from 1). `encoded` must decode as an AuditRecord: the
  /// AUDITPROCESS validates each batch before appending any of it. The LSN
  /// varint inside `encoded` is ignored; readers report the assigned one.
  uint64_t AppendEncoded(const Slice& encoded);

  /// Encodes `record` and appends it (for callers that build records).
  uint64_t Append(const AuditRecord& record) {
    return AppendEncoded(Slice(record.Encode()));
  }

  /// Forces all appended records to disc. Returns how many became durable.
  size_t Force();

  /// Total node failure: the unforced suffix is lost.
  void DropVolatile();

  /// All records (durable or not) of the given transaction.
  std::vector<AuditRecord> RecordsForTransaction(const Transid& transid) const;

  /// All durable records with lsn > after_lsn, in LSN order (ROLLFORWARD
  /// reads only what made it to disc).
  std::vector<AuditRecord> DurableRecordsAfter(uint64_t after_lsn) const;

  /// Drops whole audit files whose records all have lsn <= up_to_lsn and
  /// are durable. Returns the number of files purged.
  size_t Purge(uint64_t up_to_lsn);

  /// Raises the undo floor: records with lsn <= `lsn` are excluded from
  /// backout fetches. Set by recovery after a volume is rebuilt from its
  /// archive plus committed redo — the surviving pre-crash images are not
  /// reflected in the rebuilt volume, and applying their before-images
  /// during a later backout would clobber writes committed since.
  void SetUndoFloor(uint64_t lsn) {
    if (lsn > undo_floor_) undo_floor_ = lsn;
  }
  uint64_t undo_floor() const { return undo_floor_; }

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  size_t record_count() const;
  /// Heap bytes the retained files hold: segment plus end-offset capacity.
  size_t bytes() const;
  /// Number of audit files currently retained.
  size_t file_count() const { return files_.size(); }
  /// Sequence number of the first retained audit file.
  uint64_t first_file_number() const { return first_file_number_; }

 private:
  struct AuditFile {
    uint64_t first_lsn = 0;     ///< LSN of record 0; set when it is appended
    Bytes segment;              ///< encoded records, back to back
    std::vector<uint32_t> ends; ///< end offset of each record in `segment`

    size_t size() const { return ends.size(); }
    bool empty() const { return ends.empty(); }
    /// LSN of the last record; the file must not be empty.
    uint64_t last_lsn() const { return first_lsn + ends.size() - 1; }
    /// The encoded bytes of record `i`.
    Slice Record(size_t i) const {
      const uint32_t begin = i == 0 ? 0 : ends[i - 1];
      return Slice(segment.data() + begin, ends[i] - begin);
    }
    /// Record `i`, decoded, with its positional LSN.
    AuditRecord Decode(size_t i) const;
    /// Keeps the first `n` records.
    void Truncate(size_t n);
  };

  std::string name_;
  AuditTrailConfig config_;
  std::deque<AuditFile> files_;
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;  // highest LSN forced to disc
  uint64_t undo_floor_ = 0;   // see SetUndoFloor
  uint64_t first_file_number_ = 1;
};

/// Monitor Audit Trail: per-node history of transaction completion statuses.
/// Writing (and forcing) a commit record here IS the commit point.
class MonitorAuditTrail {
 public:
  /// Appends and forces a completion record; returns its sequence number.
  uint64_t AppendForced(const CompletionRecord& record);

  /// Completion status if known: 1 = committed, 0 = aborted, -1 = unknown.
  /// O(1): served from a transid-keyed index (this sits on the
  /// disposition-query path of every in-doubt resolution).
  int Lookup(const Transid& transid) const;

  const std::vector<CompletionRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

 private:
  std::vector<CompletionRecord> records_;
  // First completion recorded per transaction wins (idempotent re-commits
  // append duplicate records; the disposition never changes).
  std::unordered_map<uint64_t, Completion> index_;
};

}  // namespace encompass::audit

#endif  // ENCOMPASS_AUDIT_AUDIT_TRAIL_H_
