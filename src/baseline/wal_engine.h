// WalEngine: the conventional comparator the paper positions TMF against —
// a single-system transaction engine with a Write-Ahead Log and
// halt-and-restart crash recovery:
//   * every update appends a log record (before+after image) to a buffer,
//   * the WAL rule: the log is forced up to a page's last LSN before that
//     page may be flushed,
//   * commit forces the log (the classical per-commit force TMF's
//     checkpoint-to-backup scheme avoids on the update path),
//   * a crash halts the WHOLE system: all in-flight transactions die, and
//     the system is unavailable for the duration of restart recovery
//     (analysis + redo + undo over the log since the last checkpoint).
//
// Time is modeled by returned costs, so benchmarks can charge simulated
// time without the engine living inside the actor world.

#ifndef ENCOMPASS_BASELINE_WAL_ENGINE_H_
#define ENCOMPASS_BASELINE_WAL_ENGINE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"

namespace encompass::baseline {

constexpr SimDuration kLogForceLatency = Millis(8);  ///< one sequential force
constexpr SimDuration kPageIoLatency = Millis(10);   ///< one random page I/O
constexpr SimDuration kRecordCpuCost = Micros(20);   ///< per log record

/// Behaviour knobs.
struct WalEngineConfig {
  /// Ablation: force the log on EVERY update (strict write-through WAL)
  /// instead of only at commit. This is the cost the paper's checkpoint
  /// mechanism eliminates.
  bool force_log_each_update = false;
};

/// Transaction handle.
using TxnId = uint64_t;

/// Conventional WAL-based engine.
class WalEngine {
 public:
  explicit WalEngine(WalEngineConfig config = {}) : config_(config) {}

  /// Starts a transaction (crashes if the system is halted).
  TxnId Begin();

  /// Reads a key in a transaction's view. Cost is added to *cost.
  Result<std::string> Read(TxnId txn, const std::string& key,
                           SimDuration* cost);

  /// Writes key=value. Appends a log record; data stays in the buffer pool.
  Status Update(TxnId txn, const std::string& key, const std::string& value,
                SimDuration* cost);

  /// Commits: forces the log through this transaction's records.
  Status Commit(TxnId txn, SimDuration* cost);

  /// Aborts: applies before-images from the in-memory log tail.
  Status Abort(TxnId txn, SimDuration* cost);

  /// Flushes all dirty pages and writes a checkpoint record (forcing the
  /// log first, per the WAL rule). Returns the time taken.
  SimDuration TakeCheckpoint();

  /// System crash: the buffer pool and unforced log suffix vanish; every
  /// active transaction dies; the engine is down until Restart().
  void Crash();

  /// Halt-and-restart recovery: scans the durable log from the last
  /// checkpoint (redo committed work, undo losers). Returns the outage
  /// duration. The engine is available again afterwards.
  SimDuration Restart();

  bool available() const { return !halted_; }

  /// Committed, durable-after-recovery value of a key (test/verify hook).
  Result<std::string> DurableValue(const std::string& key) const;

  // -- Introspection for benchmarks -------------------------------------------
  uint64_t log_records_since_checkpoint() const {
    return static_cast<uint64_t>(durable_log_.size() + log_buffer_.size()) >
                   checkpoint_index_
               ? durable_log_.size() + log_buffer_.size() - checkpoint_index_
               : 0;
  }
  uint64_t forces() const { return forces_; }
  uint64_t active_transactions() const { return active_.size(); }

 private:
  struct LogRecord {
    TxnId txn;
    enum class Kind : uint8_t { kUpdate, kCommit, kAbort, kCheckpoint } kind;
    std::string key;
    std::string before;
    std::string after;
    bool had_before = false;
    /// kCheckpoint only: the active-transaction table at checkpoint time
    /// (needed to undo losers whose dirty pages the checkpoint stole).
    std::vector<TxnId> active_at_checkpoint;
  };

  void Append(LogRecord record);
  SimDuration ForceLog();

  WalEngineConfig config_;
  bool halted_ = false;
  TxnId next_txn_ = 1;
  std::set<TxnId> active_;

  // Buffer pool: the current (possibly uncommitted) contents; lost on crash.
  std::map<std::string, std::string> buffer_;
  std::set<std::string> deleted_in_buffer_;
  // Disk pages: only updated by checkpoints (flush-all for simplicity).
  std::map<std::string, std::string> disk_;

  std::vector<LogRecord> durable_log_;  // forced
  std::vector<LogRecord> log_buffer_;   // unforced tail
  size_t checkpoint_index_ = 0;         // durable log position of last ckpt
  uint64_t forces_ = 0;
};

}  // namespace encompass::baseline

#endif  // ENCOMPASS_BASELINE_WAL_ENGINE_H_
