#include "baseline/wal_engine.h"

#include <cassert>

namespace encompass::baseline {

TxnId WalEngine::Begin() {
  assert(!halted_ && "system is halted");
  TxnId txn = next_txn_++;
  active_.insert(txn);
  return txn;
}

Result<std::string> WalEngine::Read(TxnId txn, const std::string& key,
                                    SimDuration* cost) {
  if (halted_) return Status::Unavailable("system halted");
  if (!active_.count(txn)) return Status::InvalidArgument("unknown txn");
  *cost += kRecordCpuCost;
  if (deleted_in_buffer_.count(key)) return Status::NotFound();
  auto it = buffer_.find(key);
  if (it != buffer_.end()) return it->second;
  auto dit = disk_.find(key);
  if (dit == disk_.end()) return Status::NotFound();
  *cost += kPageIoLatency;  // page fault
  buffer_[key] = dit->second;        // cache it
  return dit->second;
}

Status WalEngine::Update(TxnId txn, const std::string& key,
                         const std::string& value, SimDuration* cost) {
  if (halted_) return Status::Unavailable("system halted");
  if (!active_.count(txn)) return Status::InvalidArgument("unknown txn");

  LogRecord rec;
  rec.txn = txn;
  rec.kind = LogRecord::Kind::kUpdate;
  rec.key = key;
  rec.after = value;
  if (!deleted_in_buffer_.count(key)) {
    auto it = buffer_.find(key);
    if (it != buffer_.end()) {
      rec.before = it->second;
      rec.had_before = true;
    } else {
      auto dit = disk_.find(key);
      if (dit != disk_.end()) {
        rec.before = dit->second;
        rec.had_before = true;
      }
    }
  }
  Append(std::move(rec));
  buffer_[key] = value;
  deleted_in_buffer_.erase(key);
  *cost += kRecordCpuCost;
  if (config_.force_log_each_update) {
    *cost += ForceLog();
  }
  return Status::Ok();
}

Status WalEngine::Commit(TxnId txn, SimDuration* cost) {
  if (halted_) return Status::Unavailable("system halted");
  if (!active_.count(txn)) return Status::InvalidArgument("unknown txn");
  LogRecord rec;
  rec.txn = txn;
  rec.kind = LogRecord::Kind::kCommit;
  Append(std::move(rec));
  // The commit point: force the log.
  *cost += ForceLog();
  active_.erase(txn);
  return Status::Ok();
}

Status WalEngine::Abort(TxnId txn, SimDuration* cost) {
  if (halted_) return Status::Unavailable("system halted");
  if (!active_.count(txn)) return Status::InvalidArgument("unknown txn");
  // Apply before-images newest-first from the in-memory log.
  auto undo_one = [this](const LogRecord& rec) {
    if (rec.had_before) {
      buffer_[rec.key] = rec.before;
      deleted_in_buffer_.erase(rec.key);
    } else {
      buffer_.erase(rec.key);
      deleted_in_buffer_.insert(rec.key);
    }
  };
  for (auto it = log_buffer_.rbegin(); it != log_buffer_.rend(); ++it) {
    if (it->txn == txn && it->kind == LogRecord::Kind::kUpdate) {
      undo_one(*it);
      *cost += kRecordCpuCost;
    }
  }
  for (auto it = durable_log_.rbegin(); it != durable_log_.rend(); ++it) {
    if (it->txn == txn && it->kind == LogRecord::Kind::kUpdate) {
      undo_one(*it);
      *cost += kRecordCpuCost;
    }
  }
  LogRecord rec;
  rec.txn = txn;
  rec.kind = LogRecord::Kind::kAbort;
  Append(std::move(rec));
  active_.erase(txn);
  return Status::Ok();
}

void WalEngine::Append(LogRecord record) { log_buffer_.push_back(std::move(record)); }

SimDuration WalEngine::ForceLog() {
  if (log_buffer_.empty()) return 0;
  for (auto& rec : log_buffer_) durable_log_.push_back(std::move(rec));
  log_buffer_.clear();
  ++forces_;
  return kLogForceLatency;
}

SimDuration WalEngine::TakeCheckpoint() {
  SimDuration cost = ForceLog();
  // Flush-all checkpoint: disk mirrors the committed buffer state. Dirty
  // pages of in-flight transactions are flushed too (a "steal" policy),
  // which is safe because their before-images are in the forced log.
  size_t dirty = 0;
  for (const auto& [key, value] : buffer_) {
    auto it = disk_.find(key);
    if (it == disk_.end() || it->second != value) {
      disk_[key] = value;
      ++dirty;
    }
  }
  for (const auto& key : deleted_in_buffer_) {
    dirty += disk_.erase(key);
  }
  deleted_in_buffer_.clear();
  cost += static_cast<SimDuration>(dirty) * kPageIoLatency;

  LogRecord rec;
  rec.txn = 0;
  rec.kind = LogRecord::Kind::kCheckpoint;
  rec.active_at_checkpoint.assign(active_.begin(), active_.end());
  durable_log_.push_back(std::move(rec));
  checkpoint_index_ = durable_log_.size();
  ++forces_;
  cost += kLogForceLatency;
  return cost;
}

void WalEngine::Crash() {
  halted_ = true;
  buffer_.clear();
  deleted_in_buffer_.clear();
  log_buffer_.clear();  // unforced log lost
  active_.clear();      // every in-flight transaction dies with the system
}

SimDuration WalEngine::Restart() {
  assert(halted_);
  SimDuration cost = 0;

  // Analysis: winners, aborted, and the set of potential losers — every
  // transaction active at the checkpoint (its stolen dirty pages may be on
  // disk) plus every transaction that logged after it.
  std::set<TxnId> committed, aborted, seen;
  if (checkpoint_index_ > 0) {
    const LogRecord& ckpt = durable_log_[checkpoint_index_ - 1];
    if (ckpt.kind == LogRecord::Kind::kCheckpoint) {
      seen.insert(ckpt.active_at_checkpoint.begin(),
                  ckpt.active_at_checkpoint.end());
    }
  }
  for (size_t i = checkpoint_index_; i < durable_log_.size(); ++i) {
    const LogRecord& rec = durable_log_[i];
    cost += kRecordCpuCost;
    if (rec.kind == LogRecord::Kind::kCommit) committed.insert(rec.txn);
    if (rec.kind == LogRecord::Kind::kAbort) aborted.insert(rec.txn);
    if (rec.kind == LogRecord::Kind::kUpdate) seen.insert(rec.txn);
  }
  std::set<TxnId> losers;
  for (TxnId t : seen) {
    if (!committed.count(t) && !aborted.count(t)) losers.insert(t);
  }

  // Redo (repeat history): reapply EVERY logged update since the checkpoint
  // in order, winners and losers alike, so before-images line up for undo.
  std::set<std::string> touched;
  for (size_t i = checkpoint_index_; i < durable_log_.size(); ++i) {
    const LogRecord& rec = durable_log_[i];
    if (rec.kind != LogRecord::Kind::kUpdate) continue;
    cost += kRecordCpuCost;
    disk_[rec.key] = rec.after;
    touched.insert(rec.key);
  }
  // Undo losers newest-first over the whole durable log (a loser active at
  // the checkpoint may have updates before it).
  for (auto it = durable_log_.rbegin(); it != durable_log_.rend(); ++it) {
    if (it->kind != LogRecord::Kind::kUpdate || !losers.count(it->txn)) continue;
    cost += kRecordCpuCost;
    if (it->had_before) disk_[it->key] = it->before;
    else disk_.erase(it->key);
    touched.insert(it->key);
  }
  cost += static_cast<SimDuration>(touched.size()) * kPageIoLatency;

  // Recovery complete: warm state is gone, but the system is available.
  buffer_.clear();
  deleted_in_buffer_.clear();
  halted_ = false;
  TakeCheckpoint();
  return cost;
}

Result<std::string> WalEngine::DurableValue(const std::string& key) const {
  auto it = disk_.find(key);
  if (it == disk_.end()) return Status::NotFound();
  return it->second;
}

}  // namespace encompass::baseline
