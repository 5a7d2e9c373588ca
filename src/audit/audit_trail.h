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
// because Append hands out LSNs consecutively, DropVolatile only truncates
// the suffix and PurgeFinished only drops whole front files. A file is
// sealed (trimmed to its size) when the next one starts, which happens at
// `records_per_file` records or when the segment would outgrow its 32-bit
// offsets.
//
// Purging: the AUDITPROCESS drops front files nothing can read any more
// each time a file is sealed (see PurgeFinished), so a trail holds its
// node's live transactions and what ROLLFORWARD needs, not the whole run.

#ifndef ENCOMPASS_AUDIT_AUDIT_TRAIL_H_
#define ENCOMPASS_AUDIT_AUDIT_TRAIL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/audit_record.h"
#include "common/sim_time.h"

namespace encompass::audit {

/// One forced sequential disc write: an audit-trail force, the TMP's MAT
/// commit-record force, and a $ACCEPT pair's acceptor-log force.
constexpr SimDuration kDiscForceLatency = Millis(8);

/// What the purge rule needs to know beyond the trail itself, at one
/// instant.
struct PurgeLimits {
  /// Highest LSN a purge may reach: the volume's archive LSN, because
  /// ROLLFORWARD replays every record after it. A never-archived volume
  /// sets no floor.
  uint64_t up_to_lsn = UINT64_MAX;
  /// True for a transaction live on the node: its records may still be
  /// backed out. The default calls every transaction live, so limits that
  /// set nothing purge nothing.
  std::function<bool(const Transid&)> live = [](const Transid&) {
    return true;
  };
};

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

  /// The purge rule. Drops front audit files while each one is sealed (a
  /// later file exists), durable, has every LSN <= `limits.up_to_lsn`, and
  /// holds no record of a transaction `limits.live` reports. Returns the
  /// number of files purged.
  size_t PurgeFinished(const PurgeLimits& limits);

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
  /// LSN of the first retained record; next_lsn() when none is retained.
  uint64_t first_lsn() const {
    return files_.front().empty() ? next_lsn_ : files_.front().first_lsn;
  }
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
    /// True if some record belongs to a transaction `live` accepts.
    bool HoldsLive(const std::function<bool(const Transid&)>& live) const;
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
  /// Appends and forces a completion record.
  void AppendForced(const CompletionRecord& record);

  /// Completion status if known: 1 = committed, 0 = aborted, -1 = unknown.
  /// O(1): served from a transid-keyed index (this sits on the
  /// disposition-query path of every in-doubt resolution).
  int Lookup(const Transid& transid) const;

  /// Records appended, duplicates included.
  size_t size() const { return appended_; }

 private:
  size_t appended_ = 0;
  // First completion recorded per transaction wins (idempotent re-commits
  // append duplicate records; the disposition never changes).
  std::unordered_map<uint64_t, Completion> index_;
};

}  // namespace encompass::audit

#endif  // ENCOMPASS_AUDIT_AUDIT_TRAIL_H_
