// Wire protocol of the DISCPROCESS: request encoding shared by the file
// system (server side), TMF (state changes), and the BACKOUTPROCESS (undo).

#ifndef ENCOMPASS_DISCPROCESS_DISC_PROTOCOL_H_
#define ENCOMPASS_DISCPROCESS_DISC_PROTOCOL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/slice.h"
#include "common/transid.h"
#include "net/message.h"
#include "storage/file.h"

namespace encompass::discprocess {

/// DISCPROCESS message tags.
enum DiscTag : uint32_t {
  kDiscRead = net::kTagDisc + 1,        ///< point read, optional record lock
  kDiscSeek = net::kTagDisc + 2,        ///< positioned read (>= / > key)
  kDiscInsert = net::kTagDisc + 3,      ///< insert (auto-locks the new key)
  kDiscUpdate = net::kTagDisc + 4,      ///< update (ensures the record lock)
  kDiscDelete = net::kTagDisc + 5,      ///< delete (ensures the record lock)
  kDiscReadAlt = net::kTagDisc + 6,     ///< alternate-key lookup
  kDiscLockFile = net::kTagDisc + 7,    ///< file-granularity lock
  kDiscTxnStateChange = net::kTagDisc + 8,  ///< from TMF: txn state broadcast
  kDiscUndo = net::kTagDisc + 9,        ///< from BACKOUTPROCESS: compensate
  kDiscScan = net::kTagDisc + 11,       ///< batched range scan (browse read)
  /// From TMF: enumerate the transactions currently holding locks here. The
  /// TMP's orphan-lock sweep compares the reply against its transaction
  /// table and resolves unknown holders with the home TMP — locks acquired
  /// by an operation retry that raced a node crash/recovery would otherwise
  /// be held forever (no TMP tracks the transid any more).
  kDiscListLockOwners = net::kTagDisc + 12,
  /// From the QueuePlanner: one lane batch of pre-ordered operations to
  /// execute without lock acquisition. Conflicts were already resolved by
  /// plan order — a record's operations all ride the same lane, in plan
  /// order, with one batch in flight per lane.
  kDiscPlannedOps = net::kTagDisc + 13,
};

/// Transaction states a DISCPROCESS reacts to (subset of the TMF states).
enum class DiscTxnState : uint8_t {
  kAborting = 0,  ///< stop accepting work for the transaction; hold locks
  kEnded = 1,     ///< commit complete: release the transaction's locks
  kAborted = 2,   ///< backout complete: release the transaction's locks
};

/// One DISCPROCESS request. Field use depends on the tag; unused fields stay
/// empty and cost one varint each on the wire.
struct DiscRequest {
  std::string file;
  Bytes key;
  Bytes record;           ///< insert/update image; kDiscUndo: before-image
  std::string field;      ///< kDiscReadAlt
  std::string value;      ///< kDiscReadAlt
  bool lock = false;      ///< kDiscRead: acquire the record lock first
  bool inclusive = true;  ///< kDiscSeek / kDiscScan
  storage::MutationOp undo_op = storage::MutationOp::kInsert;  ///< kDiscUndo
  SimDuration lock_timeout = 0;  ///< 0 = DISCPROCESS default
  uint32_t max_records = 0;      ///< kDiscScan batch size (0 = server default)

  Bytes Encode() const;
  static Result<DiscRequest> Decode(const Slice& payload);
};

/// Reply payload of kDiscSeek.
struct SeekReply {
  Bytes key;
  Bytes value;

  Bytes Encode() const;
  static Result<SeekReply> Decode(const Slice& payload);
};

/// Reply payload of kDiscScan: a batch of records in key order, plus
/// whether the scan reached the end of this partition's file.
struct ScanReply {
  std::vector<SeekReply> entries;
  bool at_end = false;

  Bytes Encode() const;
  static Result<ScanReply> Decode(const Slice& payload);
};

/// Reply payload of kDiscListLockOwners: transactions holding >= 1 lock.
struct LockOwnersReply {
  std::vector<Transid> owners;

  Bytes Encode() const;
  static Result<LockOwnersReply> Decode(const Slice& payload);
};

/// One operation inside a kDiscPlannedOps lane batch. Each op carries its
/// own transaction id: a lane interleaves operations of many transactions,
/// and every mutation is audited (and undone on abort) under its owner.
struct PlannedOp {
  enum class Kind : uint8_t {
    kInsert = 1,
    kUpdate = 2,  ///< full-image update
    kDelete = 3,
    kDelta = 4,   ///< read-modify-write: add `delta` to integer field `field`
  };

  Kind kind = Kind::kUpdate;
  Transid transid;
  std::string file;
  Bytes key;
  Bytes record;       ///< kInsert / kUpdate image
  std::string field;  ///< kDelta: name of the integer record field
  int64_t delta = 0;  ///< kDelta: signed amount to add
};

/// Op codec shared by PlannedBatch and the queue lane's QueueTxn. An encoded
/// op takes at least kPlannedOpMinBytes (kind, transid, four empty
/// length-prefixed fields, delta), which bounds a decoded op count.
/// GetPlannedOp rejects a kind byte that names no Kind.
constexpr size_t kPlannedOpMinBytes = 21;
void PutPlannedOp(Bytes* out, const PlannedOp& op);
bool GetPlannedOp(Slice* in, PlannedOp* op);

/// Payload of kDiscPlannedOps: one lane's next batch, in plan order.
struct PlannedBatch {
  std::vector<PlannedOp> ops;

  Bytes Encode() const;
  static Result<PlannedBatch> Decode(const Slice& payload);
};

/// Reply payload of kDiscPlannedOps: one entry per op, in batch order.
struct PlannedBatchReply {
  struct OpResult {
    Status::Code status = Status::Code::kOk;
    Bytes value;  ///< kInsert: the assigned key; kDelta: the after-image
  };
  std::vector<OpResult> results;

  Bytes Encode() const;
  static Result<PlannedBatchReply> Decode(const Slice& payload);
};

/// Payload of kDiscTxnStateChange.
struct TxnStateChange {
  Transid transid;
  DiscTxnState state = DiscTxnState::kEnded;

  Bytes Encode() const;
  static Result<TxnStateChange> Decode(const Slice& payload);
};

}  // namespace encompass::discprocess

#endif  // ENCOMPASS_DISCPROCESS_DISC_PROTOCOL_H_
