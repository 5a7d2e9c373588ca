// Queue-oriented execution lane (after the QueCC paradigm): a second way to
// run transactions beside the LockManager path, built for hot-row
// contention. Clients submit whole transactions with predeclared read/write
// file sets; the QueuePlanner collects them into epochs (batch window, the
// group-commit idiom), assigns a deterministic plan order, partitions the
// epoch's operations by interned file id / key range into per-lane FIFO
// queues, and drains each lane with one planned batch in flight — the
// executor half. Because a record's operations all ride one lane in plan
// order, conflicts are resolved by position, never by lock acquisition: a
// hot-row transaction cannot abort on lock conflict or deadlock timeout.
//
// A queue-lane commit is still a normal TMF commit: the planner brackets
// every transaction with kTmfBegin/kTmfEnd at the local TMP, lane batches
// are audited per-operation by the DISCPROCESS (kDiscPlannedOps), and a
// runtime failure aborts through the ordinary BACKOUTPROCESS undo path. The
// audit trail, MAT, ROLLFORWARD, and the chaos atomicity oracle see both
// lanes identically.
//
// Scope: the lane is per-node (QueCC is a single-server design) — every
// operation of a queue transaction must route to the planner's own node.
// Planner state is volatile by design, like the TMP's commit coordination:
// a takeover drops in-flight epochs, the submitting clients time out
// (outcome unknown), and the TMP's auto-abort reclaims their transactions.

#ifndef ENCOMPASS_TMF_QUEUE_LANE_H_
#define ENCOMPASS_TMF_QUEUE_LANE_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/transid.h"
#include "discprocess/disc_protocol.h"
#include "net/message.h"
#include "os/process_pair.h"
#include "storage/partition.h"

namespace encompass::tmf {

/// Queue-lane message tags.
enum QueueLaneTag : uint32_t {
  kTmfQueueSubmit = net::kTagTmf + 14,  ///< client -> $QPLAN: whole txn
};

/// Payload of kTmfQueueSubmit: a whole transaction with its predeclared
/// file set. Any operation naming a file outside `declared` is rejected
/// with Status::PlanViolation before anything executes. The ops are the
/// DISCPROCESS's planned ops; the planner stamps each with the transaction's
/// transid when it forwards it, so a submitted transid is ignored.
struct QueueTxn {
  std::vector<std::string> declared;
  std::vector<discprocess::PlannedOp> ops;

  Bytes Encode() const;
  static Result<QueueTxn> Decode(const Slice& payload);
};

/// Reply payload of kTmfQueueSubmit: the TMF transid and per-op outcomes
/// (inserted keys and delta after-images ride along). The message status is
/// the verdict: Ok = committed, Aborted = backed out, PlanViolation =
/// rejected unexecuted.
struct QueueTxnReply {
  uint64_t transid = 0;
  discprocess::PlannedBatchReply ops;  ///< one result per op, in txn order

  Bytes Encode() const;
  static Result<QueueTxnReply> Decode(const Slice& payload);
};

/// Configuration of one QueuePlanner pair.
struct QueuePlannerConfig {
  const storage::Catalog* catalog = nullptr;  ///< routing + locality checks
  std::string tmp_process = "$TMP";
};

/// The planner/executor pair ($QPLAN). It overrides no takeover hook:
/// planner state is volatile by design, so a new primary starts with empty
/// epochs and lanes.
class QueuePlanner : public os::PairedProcess {
 public:
  explicit QueuePlanner(QueuePlannerConfig config) : config_(config) {}

  std::string DebugName() const override { return pair_name() + "/qplan"; }

 protected:
  void OnPairAttach() override;
  void OnRequest(const net::Message& msg) override;

 private:
  /// One admitted transaction, keyed by its plan-order sequence number.
  struct ActiveTxn {
    net::Message msg;  ///< the submit; replied once committed or backed out
    QueueTxn txn;
    Transid transid;
    std::vector<discprocess::PlannedBatchReply::OpResult> results;
    size_t outstanding = 0;  ///< ops not yet acknowledged by a lane batch
    bool failed = false;
    Status::Code fail_code = Status::Code::kOk;
    SimTime submitted_at = 0;
  };

  /// A lane queue entry: (transaction plan seq, op index).
  struct LaneOp {
    uint64_t txn = 0;
    uint32_t op = 0;
  };
  struct Lane {
    std::deque<LaneOp> queue;
    bool in_flight = false;  ///< one batch in flight preserves plan order
  };

  Status ValidateTxn(const QueueTxn& txn) const;
  void SealEpoch();
  void EnqueueEpoch(const std::vector<uint64_t>& seqs);
  uint64_t LaneFor(const std::string& file, const Bytes& key);
  void PumpLane(uint64_t lane_id);
  void OnBatchReply(uint64_t lane_id, const std::vector<LaneOp>& ops,
                    const Status& status, const net::Message& reply);
  void FinishTxn(uint64_t seq);

  struct Metrics {
    sim::MetricId submits, plan_violations, epochs, commits, aborts;
    sim::MetricId lane_batches;
    sim::MetricId epoch_txns, lane_ops, txn_latency;  // histograms
  };

  QueuePlannerConfig config_;
  Metrics m_;

  uint64_t next_seq_ = 1;   ///< plan order: assigned at admission
  std::map<uint64_t, ActiveTxn> txns_;
  std::vector<uint64_t> open_epoch_;  ///< admitted, awaiting the seal timer
  bool epoch_timer_armed_ = false;

  std::map<std::string, uint32_t> file_ids_;  ///< interned in plan order
  std::map<uint64_t, Lane> lanes_;
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_QUEUE_LANE_H_
