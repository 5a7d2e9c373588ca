#include "tmf/queue_lane.h"

#include "common/coding.h"
#include "common/hash.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

namespace {

// Epoch batch window: submits arriving within it share one plan.
constexpr SimDuration kEpochWindow = Millis(1);
constexpr uint32_t kLanesPerFile = 8;  // key-range buckets per interned file
constexpr size_t kMaxBatchOps = 32;    // ops per kDiscPlannedOps message
constexpr SimDuration kDiscTimeout = Seconds(2);
constexpr int kDiscRetries = 3;
constexpr SimDuration kTmpTimeout = Seconds(5);

}  // namespace

Bytes QueueTxn::Encode() const {
  Bytes out;
  PutVarint32(&out, static_cast<uint32_t>(declared.size()));
  for (const std::string& f : declared) PutLengthPrefixed(&out, Slice(f));
  PutVarint32(&out, static_cast<uint32_t>(ops.size()));
  for (const discprocess::PlannedOp& op : ops) {
    discprocess::PutPlannedOp(&out, op);
  }
  return out;
}

Result<QueueTxn> QueueTxn::Decode(const Slice& payload) {
  Slice in = payload;
  QueueTxn txn;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return DecodeError("queue txn");
  if (static_cast<uint64_t>(n) > in.size()) {
    return DecodeError("queue txn declared count exceeds payload");
  }
  txn.declared.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string f;
    if (!GetLengthPrefixedString(&in, &f)) return DecodeError("queue txn file");
    txn.declared.push_back(std::move(f));
  }
  if (!GetVarint32(&in, &n)) return DecodeError("queue txn");
  if (static_cast<uint64_t>(n) * discprocess::kPlannedOpMinBytes >
      in.size()) {
    return DecodeError("queue txn op count exceeds payload");
  }
  txn.ops.resize(n);
  for (discprocess::PlannedOp& op : txn.ops) {
    if (!discprocess::GetPlannedOp(&in, &op)) {
      return DecodeError("queue txn op");
    }
  }
  return txn;
}

Bytes QueueTxnReply::Encode() const {
  Bytes out;
  PutFixed64(&out, transid);
  Bytes results = ops.Encode();
  out.insert(out.end(), results.begin(), results.end());
  return out;
}

Result<QueueTxnReply> QueueTxnReply::Decode(const Slice& payload) {
  Slice in = payload;
  QueueTxnReply rep;
  if (!GetFixed64(&in, &rep.transid)) return DecodeError("queue txn reply");
  auto ops = discprocess::PlannedBatchReply::Decode(in);
  if (!ops.ok()) return ops.status();
  rep.ops = std::move(*ops);
  return rep;
}

void QueuePlanner::OnPairAttach() {
  sim::Stats& stats = this->stats();
  m_.submits = stats.RegisterCounter("queue.submits");
  m_.plan_violations = stats.RegisterCounter("queue.plan_violations");
  m_.epochs = stats.RegisterCounter("queue.epochs");
  m_.commits = stats.RegisterCounter("queue.commits");
  m_.aborts = stats.RegisterCounter("queue.aborts");
  m_.lane_batches = stats.RegisterCounter("queue.lane_batches");
  m_.epoch_txns = stats.RegisterHistogram("queue.epoch_txns");
  m_.lane_ops = stats.RegisterHistogram("queue.lane_ops");
  m_.txn_latency = stats.RegisterHistogram("queue.txn_latency");
}

void QueuePlanner::OnRequest(const net::Message& msg) {
  if (!IsPrimary()) {
    Reply(msg, Status::Unavailable("backup queue planner"));
    return;
  }
  if (msg.tag != kTmfQueueSubmit) {
    Reply(msg, Status::InvalidArgument("unknown queue lane tag"));
    return;
  }
  auto txn = QueueTxn::Decode(Slice(msg.payload));
  if (!txn.ok()) {
    Reply(msg, txn.status());
    return;
  }
  stats().Incr(m_.submits);

  // Admission: the whole plan is validated before any effect, so a rejected
  // transaction never begins at the TMP and needs no backout.
  Status v = ValidateTxn(*txn);
  if (!v.ok()) {
    if (v.IsPlanViolation()) stats().Incr(m_.plan_violations);
    Reply(msg, v);
    return;
  }

  const uint64_t seq = next_seq_++;
  ActiveTxn& at = txns_[seq];
  at.msg = msg;
  at.txn = std::move(*txn);
  at.submitted_at = sim()->Now();
  at.results.resize(at.txn.ops.size());
  at.outstanding = at.txn.ops.size();
  open_epoch_.push_back(seq);

  if (!epoch_timer_armed_) {
    epoch_timer_armed_ = true;
    SetTimer(kEpochWindow, [this]() { SealEpoch(); });
  }
}

Status QueuePlanner::ValidateTxn(const QueueTxn& txn) const {
  if (txn.ops.empty()) {
    return Status::InvalidArgument("queue txn has no operations");
  }
  for (const discprocess::PlannedOp& op : txn.ops) {
    bool declared = false;
    for (const std::string& f : txn.declared) {
      if (f == op.file) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      return Status::PlanViolation("file outside declared set: " + op.file);
    }
    const storage::FileDefinition* def = config_.catalog->Find(op.file);
    if (def == nullptr) return Status::NotFound("unknown file: " + op.file);
    const storage::PartitionEntry& part = def->partitions.Locate(Slice(op.key));
    if (part.node != node()->id()) {
      // The queue lane is per-node (QueCC is a single-server design): data
      // on other nodes takes the lock lane.
      return Status::NotSupported("queue lane requires node-local data: " +
                                  op.file);
    }
  }
  return Status::Ok();
}

void QueuePlanner::SealEpoch() {
  epoch_timer_armed_ = false;
  if (open_epoch_.empty()) return;
  auto seqs = std::make_shared<std::vector<uint64_t>>(std::move(open_epoch_));
  open_epoch_.clear();
  stats().Incr(m_.epochs);
  stats().Record(m_.epoch_txns, static_cast<int64_t>(seqs->size()));

  // BEGIN every transaction of the epoch at the local TMP. Ops enter the
  // lanes only after all begins answered, in plan (admission) order, so lane
  // order never depends on reply interleaving.
  auto pending = std::make_shared<size_t>(seqs->size());
  for (uint64_t seq : *seqs) {
    os::CallOptions opt;
    opt.timeout = kTmpTimeout;
    opt.retries = 2;
    Call(net::Address(node()->id(), config_.tmp_process), kTmfBegin, {},
         [this, seq, pending, seqs](const Status& s,
                                    const net::Message& reply) {
           auto it = txns_.find(seq);
           if (it != txns_.end()) {
             if (s.ok()) {
               auto t = DecodeTransidPayload(Slice(reply.payload));
               if (t.ok()) it->second.transid = *t;
             }
             if (!it->second.transid.valid()) {
               // BEGIN failed: nothing executed, nothing to undo.
               ActiveTxn dead = std::move(it->second);
               txns_.erase(it);
               stats().Incr(m_.aborts);
               Reply(dead.msg,
                     s.ok() ? Status::Unavailable("begin failed") : s);
             }
           }
           if (--*pending == 0) EnqueueEpoch(*seqs);
         },
         opt);
  }
}

void QueuePlanner::EnqueueEpoch(const std::vector<uint64_t>& seqs) {
  std::set<uint64_t> touched;
  for (uint64_t seq : seqs) {
    auto it = txns_.find(seq);
    if (it == txns_.end()) continue;  // begin failed, already answered
    ActiveTxn& txn = it->second;
    for (uint32_t i = 0; i < txn.txn.ops.size(); ++i) {
      const discprocess::PlannedOp& op = txn.txn.ops[i];
      const uint64_t lane = LaneFor(op.file, op.key);
      lanes_[lane].queue.push_back(LaneOp{seq, i});
      touched.insert(lane);
    }
  }
  for (uint64_t lane : touched) PumpLane(lane);
}

uint64_t QueuePlanner::LaneFor(const std::string& file, const Bytes& key) {
  // Interned in first-use order — plan order, hence deterministic.
  auto [it, inserted] =
      file_ids_.try_emplace(file, static_cast<uint32_t>(file_ids_.size()));
  return (static_cast<uint64_t>(it->second) << 32) |
         (Fnv1a(Slice(key)) % kLanesPerFile);
}

void QueuePlanner::PumpLane(uint64_t lane_id) {
  Lane& lane = lanes_[lane_id];
  if (lane.in_flight || lane.queue.empty()) return;

  // Take the lane's front run of ops that route to one DISCPROCESS (a lane
  // of a partitioned file can span volumes; order within the lane still
  // holds because only one batch is ever in flight).
  discprocess::PlannedBatch batch;
  std::string dest_volume;
  std::vector<LaneOp> taken;
  while (!lane.queue.empty() && taken.size() < kMaxBatchOps) {
    const LaneOp lo = lane.queue.front();
    auto it = txns_.find(lo.txn);
    if (it == txns_.end()) {
      lane.queue.pop_front();
      continue;
    }
    ActiveTxn& txn = it->second;
    const discprocess::PlannedOp& op = txn.txn.ops[lo.op];
    const storage::FileDefinition* def = config_.catalog->Find(op.file);
    const storage::PartitionEntry& part = def->partitions.Locate(Slice(op.key));
    if (dest_volume.empty()) {
      dest_volume = part.volume_process;
    } else if (part.volume_process != dest_volume) {
      break;
    }
    batch.ops.push_back(op);
    batch.ops.back().transid = txn.transid;
    taken.push_back(lo);
    lane.queue.pop_front();
  }
  if (batch.ops.empty()) return;

  lane.in_flight = true;
  stats().Incr(m_.lane_batches);
  stats().Record(m_.lane_ops, static_cast<int64_t>(batch.ops.size()));
  os::CallOptions opt;
  opt.timeout = kDiscTimeout;
  opt.retries = kDiscRetries;
  auto ops = std::make_shared<std::vector<LaneOp>>(std::move(taken));
  Call(net::Address(node()->id(), dest_volume), discprocess::kDiscPlannedOps,
       batch.Encode(),
       [this, lane_id, ops](const Status& s, const net::Message& reply) {
         OnBatchReply(lane_id, *ops, s, reply);
       },
       opt);
}

void QueuePlanner::OnBatchReply(uint64_t lane_id,
                                const std::vector<LaneOp>& ops,
                                const Status& status,
                                const net::Message& reply) {
  lanes_[lane_id].in_flight = false;

  discprocess::PlannedBatchReply rep;
  bool have_results = false;
  if (status.ok()) {
    auto decoded = discprocess::PlannedBatchReply::Decode(Slice(reply.payload));
    if (decoded.ok() && decoded->results.size() == ops.size()) {
      rep = std::move(*decoded);
      have_results = true;
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    auto it = txns_.find(ops[i].txn);
    if (it == txns_.end()) continue;
    ActiveTxn& txn = it->second;
    discprocess::PlannedBatchReply::OpResult r;
    if (have_results) {
      r = std::move(rep.results[i]);
    } else {
      // The whole batch failed (disc unreachable / malformed reply): every
      // op of it fails with the call status and the owners abort.
      r.status = status.ok() ? Status::Code::kIoError : status.code();
    }
    if (r.status != Status::Code::kOk && !txn.failed) {
      txn.failed = true;
      txn.fail_code = r.status;
    }
    txn.results[ops[i].op] = std::move(r);
    if (--txn.outstanding == 0) FinishTxn(ops[i].txn);
  }
  PumpLane(lane_id);
}

void QueuePlanner::FinishTxn(uint64_t seq) {
  auto it = txns_.find(seq);
  if (it == txns_.end()) return;
  ActiveTxn& txn = it->second;

  // A clean plan commits through the ordinary TMF path (phase-1 audit
  // force, MAT, phase-2 release); a failed op aborts through the ordinary
  // BACKOUTPROCESS undo of the audited images. Either way the reply to the
  // client is sent only once the outcome is settled.
  const uint32_t verb = txn.failed ? kTmfAbort : kTmfEnd;
  const bool failed = txn.failed;
  os::CallOptions opt;
  opt.timeout = kTmpTimeout;
  opt.retries = 0;  // an END retry could not distinguish commit from abort
  Call(net::Address(node()->id(), config_.tmp_process), verb,
       EncodeTransidPayload(txn.transid),
       [this, seq, failed](const Status& s, const net::Message&) {
         auto it = txns_.find(seq);
         if (it == txns_.end()) return;
         ActiveTxn done = std::move(it->second);
         txns_.erase(it);
         QueueTxnReply rep;
         rep.transid = done.transid.Pack();
         rep.ops.results = std::move(done.results);
         Status final;
         if (failed) {
           final = Status::Aborted(
               std::string("queue txn aborted: ") +
               StatusCodeName(done.fail_code));
           stats().Incr(m_.aborts);
         } else if (s.ok()) {
           final = Status::Ok();
           stats().Incr(m_.commits);
         } else {
           // END did not confirm (timeout or TMP-side abort): pass the
           // status through — Aborted means backed out; anything else
           // leaves the outcome to a kTmfStatus query.
           final = s;
           stats().Incr(m_.aborts);
         }
         stats().Record(m_.txn_latency, sim()->Now() - done.submitted_at);
         Reply(done.msg, final, rep.Encode());
       },
       opt);
}

}  // namespace encompass::tmf
