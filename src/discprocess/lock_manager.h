// LockManager: the per-volume concurrency-control state. "Each DISCPROCESS
// maintains the locking control information for those records and files
// resident on its volume only" — concurrency control is decentralized; no
// central lock manager exists. Two granularities (file and record), all
// locks exclusive, FIFO waiting, deadlock resolution by timeout (the
// timeout itself lives in the DISCPROCESS, which cancels the wait).
//
// Internally the table is organized for O(1) grant checks: file names are
// interned to dense ids, each file owns a hash table of record units plus a
// maintained count of record units held per owner, so "does any OTHER
// transaction hold a record of this file" is a subtraction instead of a map
// scan. Waiter promotion iterates only units that actually have waiters, in
// the same deterministic order (file-level unit first, then record keys in
// byte order) as the original full-scan implementation, so grant order —
// and therefore every same-seed simulation trace — is unchanged.

#ifndef ENCOMPASS_DISCPROCESS_LOCK_MANAGER_H_
#define ENCOMPASS_DISCPROCESS_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/transid.h"

namespace encompass::discprocess {

/// Identity of one lockable unit: a whole file, or one record (by primary
/// key) within a file.
struct LockKey {
  std::string file;
  Bytes record;  ///< empty = file-level lock

  bool file_level() const { return record.empty(); }

  friend bool operator<(const LockKey& a, const LockKey& b) {
    if (a.file != b.file) return a.file < b.file;
    return Slice(a.record) < Slice(b.record);
  }
  friend bool operator==(const LockKey& a, const LockKey& b) {
    return a.file == b.file && Slice(a.record) == Slice(b.record);
  }
};

/// A lock grant handed out when a release unblocks a waiter.
struct LockGrant {
  Transid owner;
  LockKey key;
};

/// Exclusive two-granularity lock table for one volume.
class LockManager {
 public:
  enum class AcquireResult {
    kGranted,  ///< caller now holds the lock (or already did)
    kQueued,   ///< caller waits in FIFO order
  };

  /// Requests the lock. A file-level lock conflicts with every record lock
  /// in that file held by another transaction, and vice versa. Re-acquiring
  /// a held lock (or a record covered by the caller's file lock) grants.
  AcquireResult Acquire(const Transid& owner, const LockKey& key);

  /// Grants unconditionally — used by a process-pair backup to mirror the
  /// primary's grants from checkpoints. Never queues.
  void ForceGrant(const Transid& owner, const LockKey& key);

  /// Releases every lock held by `owner` (commit phase two, or abort
  /// completion) and removes it from all wait queues. Returns the waiters
  /// that acquired locks as a result, in grant order.
  std::vector<LockGrant> ReleaseAll(const Transid& owner);

  /// Removes `owner` from the wait queue of `key` (lock-wait timeout).
  /// Returns true if a waiting entry was removed.
  bool CancelWait(const Transid& owner, const LockKey& key);

  /// True if `owner` holds `key` itself or a covering file lock.
  bool Holds(const Transid& owner, const LockKey& key) const;

  size_t held_count() const { return held_count_; }
  size_t waiter_count() const { return waiter_count_; }
  /// Transactions currently holding at least one lock.
  std::vector<Transid> Holders() const;
  /// True if `owner` holds at least one lock: one lookup in the per-owner
  /// table, no scan. (A ForceGrant reassignment can leave the old owner
  /// listed until its ReleaseAll, so a stale "true" errs on the safe side.)
  bool HoldsAny(const Transid& owner) const { return owned_.count(owner) != 0; }
  /// Every held (owner, key) pair, ordered by (file, record) — used for
  /// full-state checkpoints when a fresh backup attaches.
  std::vector<LockGrant> AllHeld() const;

 private:
  struct Unit {
    Transid holder;                // !valid() = free
    std::deque<Transid> waiters;   // FIFO
  };

  struct BytesHash {
    size_t operator()(const Bytes& b) const {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(b.data()), b.size()));
    }
  };

  /// All lock state of one file. Record units live in a hash table; the set
  /// of record keys with a nonempty wait queue is kept sorted so promotion
  /// scans only contended units, in deterministic byte order.
  struct FileTable {
    std::string name;
    Unit file_unit;
    std::unordered_map<Bytes, Unit, BytesHash> records;
    size_t held_records = 0;  ///< record units with a valid holder
    /// packed owner -> record units of this file it holds (absent = 0).
    std::unordered_map<uint64_t, size_t> held_by;
    std::set<Bytes> waiting_records;  ///< record keys with waiters, sorted
  };

  FileTable& InternFile(const std::string& file);
  FileTable* FindFile(const std::string& file);
  const FileTable* FindFile(const std::string& file) const;

  /// Record units of `ft` held by transactions other than `owner`. O(1).
  size_t RecordsHeldByOther(const FileTable& ft, const Transid& owner) const;

  /// Promotes waiters of `ft` whose grant conditions now hold; appends
  /// grants in the same order as a sorted full scan would produce.
  void PromoteWaiters(FileTable& ft, std::vector<LockGrant>* grants);

  void AddWait(const Transid& owner, const LockKey& key);
  void RemoveWait(const Transid& owner, const LockKey& key);

  std::unordered_map<std::string, uint32_t> file_ids_;
  std::vector<FileTable> files_;
  /// Keys held per owner, in deterministic (file, record) order — drives
  /// release and promotion ordering. May contain stale entries for units
  /// reassigned by ForceGrant; ReleaseAll checks the live holder.
  std::map<Transid, std::set<LockKey>> owned_;
  /// Queues each owner waits in (for O(queues-of-owner) release scrubbing).
  std::unordered_map<uint64_t, std::vector<LockKey>> waits_;
  size_t held_count_ = 0;
  size_t waiter_count_ = 0;
};

}  // namespace encompass::discprocess

#endif  // ENCOMPASS_DISCPROCESS_LOCK_MANAGER_H_
