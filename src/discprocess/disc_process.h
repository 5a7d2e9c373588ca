// DiscProcess: the I/O process-pair controlling one disc volume. It is the
// single point of access to the volume's files and the keeper of their lock
// state ("each DISCPROCESS maintains the locking control information for
// those records and files resident on its volume only").
//
// Fault-tolerance per the paper's design:
//  * The primary checkpoints each completed operation (lock grants, the
//    reply, transaction release events) to its backup. The checkpoint is
//    the functional equivalent of Write-Ahead Log — no disc force happens
//    on the update path.
//  * After takeover the backup answers retried requests from its mirrored
//    reply cache, so requesters never observe a duplicate application.
//  * Audit images of updates to audited files are sent (unforced) to the
//    volume's AUDITPROCESS; TMF forces them at phase one of commit.

#ifndef ENCOMPASS_DISCPROCESS_DISC_PROCESS_H_
#define ENCOMPASS_DISCPROCESS_DISC_PROCESS_H_

#include <deque>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "discprocess/disc_protocol.h"
#include "discprocess/lock_manager.h"
#include "os/process_pair.h"
#include "storage/volume.h"

namespace encompass::discprocess {

constexpr SimDuration kRequestLatency = Micros(300);  ///< request processing
constexpr SimDuration kDiscIoLatency = Millis(10);     ///< per physical read
constexpr size_t kReplyCacheCapacity = 4096;  ///< replies kept for retries

/// Configuration of one DISCPROCESS pair.
struct DiscProcessConfig {
  storage::Volume* volume = nullptr;   ///< shared durable volume (the discs)
  std::string audit_process;           ///< AUDITPROCESS name; "" = unaudited volume
  SimDuration default_lock_timeout = Seconds(1);  ///< deadlock detection
  /// Charge read latency from the volume's per-drive schedule (the paper's
  /// write-both / read-either rule: concurrent reads overlap across the
  /// mirror) instead of a flat disc_ios * kDiscIoLatency. Default off keeps
  /// the legacy timing exactly (same convention as group_commit_window=0).
  bool overlap_mirror_reads = false;
  /// Piggyback consecutive operations' checkpoint deltas into one backup
  /// message flushed after this window. 0 = flush per operation (today's
  /// behavior). A nonzero window trades a bounded takeover-replay gap for
  /// far fewer interprocessor messages — the acknowledged main cost of
  /// process pairs.
  SimDuration ckpt_coalesce_window = 0;
};

/// The DISCPROCESS pair.
class DiscProcess : public os::PairedProcess {
 public:
  explicit DiscProcess(DiscProcessConfig config) : config_(config) {}

  std::string DebugName() const override { return pair_name() + "/disc"; }

  const LockManager& locks() const { return locks_; }
  storage::Volume* volume() const { return config_.volume; }

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;
  void OnCheckpoint(const Slice& delta) override;
  void OnBackupAttached() override;
  void OnTakeover() override;

 private:
  struct CachedReply {
    uint32_t tag;
    Status::Code status;
    std::string message;  ///< full Status text, replayed verbatim on retries
    /// Shared with the in-flight delayed reply — caching never copies the
    /// payload bytes.
    std::shared_ptr<const Bytes> payload;
  };
  using RequestKey = std::pair<net::ProcessId, uint64_t>;

  /// Accumulates one operation's checkpoint entries, flushed as one message
  /// (or folded into the coalescing buffer when ckpt_coalesce_window > 0).
  struct CheckpointBatch {
    Bytes delta;
    int entries = 0;
  };

  /// Duplicate suppression, ahead of both execution lanes: an answered
  /// request is replayed from the reply cache and one still being processed
  /// (e.g. parked on a lock) is dropped — the eventual reply answers the
  /// retry too (same request id). Returns true, marking the request in
  /// flight, when it is new.
  bool AdmitRequest(const net::Message& msg);
  void HandleOperation(const net::Message& msg, const DiscRequest& req);
  /// Queue-lane path: executes one lane batch in plan order, without lock
  /// acquisition. Mutations are audited per-op under the op's own transid,
  /// so abort backout and ROLLFORWARD see queue-lane work exactly like
  /// lock-lane work.
  void HandlePlannedBatch(const net::Message& msg);
  PlannedBatchReply::OpResult ExecutePlannedOp(const PlannedOp& op,
                                               int* disc_ios);
  /// Runs the operation body once required locks are held.
  void Execute(const net::Message& msg, const DiscRequest& req);
  /// Lock step: returns true when held/granted; false when parked or failed
  /// (failure already replied).
  bool EnsureLock(const net::Message& msg, const DiscRequest& req,
                  const Transid& owner, LockKey key);
  void ParkRequest(const net::Message& msg, const Transid& owner, LockKey key,
                   SimDuration timeout);
  void ResumeGranted(const std::vector<LockGrant>& grants);
  void HandleStateChange(const net::Message& msg);
  void FinishWithReply(const net::Message& msg, const Status& status,
                       Bytes payload, int disc_ios, CheckpointBatch* batch);
  /// The one mutate step of both lanes: applies the mutation and, when it
  /// succeeds on an audited file under a transaction, queues its audit image
  /// for the AUDITPROCESS.
  storage::OpResult MutateAudited(const Transid& transid,
                                  const std::string& file,
                                  storage::MutationOp op, const Slice& key,
                                  const Slice& after);
  /// Drives the reliable, ordered delivery of queued audit records to the
  /// AUDITPROCESS (one in-flight batch; retried until acknowledged).
  void PumpAuditQueue();
  void CacheReply(const RequestKey& rk, uint32_t tag, const Status& status,
                  std::shared_ptr<const Bytes> payload);

  // Checkpoint encoding helpers.
  void CkptGrant(CheckpointBatch* batch, const Transid& owner, const LockKey& key);
  void CkptRelease(CheckpointBatch* batch, const Transid& owner);
  void CkptAborting(CheckpointBatch* batch, const Transid& owner);
  void CkptReply(CheckpointBatch* batch, const RequestKey& rk, uint32_t tag,
                 Status::Code status, const std::string& message,
                 const Bytes& payload);
  void CkptAuditPushEntry(CheckpointBatch* batch, const Bytes& encoded);
  void CkptAuditPopEntry(CheckpointBatch* batch);
  /// Sends the batch now (window 0) or folds it into the coalescing buffer
  /// and arms the flush timer.
  void FlushCheckpoint(CheckpointBatch* batch);
  /// Sends whatever the coalescing buffer holds, immediately.
  void FlushPendingCheckpoint();

  /// Marks a transaction as resolved (committed or backed out). A request
  /// carrying a resolved transid arriving later — e.g. a retransmission
  /// finally delivered after a partition heals — must not acquire locks for
  /// the dead transaction; it is rejected with Aborted.
  void MarkResolved(const Transid& transid);
  bool IsResolved(const Transid& transid) const {
    return resolved_.count(transid.Pack()) != 0;
  }

  struct Metrics {
    sim::MetricId ops, dedup_replays, dedup_inflight_drops;
    sim::MetricId lock_waits, lock_timeouts, lock_releases;
    sim::MetricId lock_conflict_aborts, lock_timeout_aborts;
    sim::MetricId scan_batches, scan_records, undo_ops;
    sim::MetricId planned_batches, planned_ops, planned_rejects;
    sim::MetricId audit_records, audit_redelivery;
    sim::MetricId ckpt_messages, ckpt_entries;
    sim::MetricId op_ios, queue_depth, op_latency, lock_wait_time;  // histograms
  };

  DiscProcessConfig config_;
  Metrics m_;
  LockManager locks_;
  std::set<Transid> aborting_;
  std::set<uint64_t> resolved_;
  std::deque<uint64_t> resolved_order_;

  std::map<RequestKey, CachedReply> reply_cache_;
  std::deque<RequestKey> reply_cache_order_;
  std::set<RequestKey> in_flight_;

  struct ParkedOp {
    net::Message msg;
    Transid owner;
    LockKey key;
    uint64_t timer = 0;
    SimTime parked_at = 0;  ///< for the lock.wait_time histogram
  };
  std::list<ParkedOp> parked_;

  // Audit records awaiting acknowledged delivery. Mirrored to the backup so
  // a takeover never loses a before-image (the checkpoint IS the paper's
  // WAL-equivalent). FIFO with one batch in flight preserves LSN order.
  std::deque<Bytes> audit_queue_;  // encoded AuditRecords
  bool audit_in_flight_ = false;

  // Coalescing buffer (ckpt_coalesce_window > 0): deltas accumulated since
  // the last backup message, flushed by timer, by a fresh backup attaching,
  // or discarded when the backup is lost (the full-state resync supersedes).
  CheckpointBatch pending_ckpt_;
  uint64_t ckpt_timer_ = 0;
  bool ckpt_timer_armed_ = false;
};

}  // namespace encompass::discprocess

#endif  // ENCOMPASS_DISCPROCESS_DISC_PROCESS_H_
