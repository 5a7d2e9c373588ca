// FileSystem: the client-side library through which application processes
// access the (possibly partitioned, possibly remote) data base. It
//   * routes each operation to the DISCPROCESS owning the key's partition,
//   * stamps the caller's current transid on every request (done by the
//     Process messaging layer), and
//   * performs "remote transaction begin": before the first transmission of
//     a transid to another node, the local TMP is asked to register that
//     node as a participant (a critical-response exchange with the remote
//     TMP).

#ifndef ENCOMPASS_TMF_FILE_SYSTEM_H_
#define ENCOMPASS_TMF_FILE_SYSTEM_H_

#include <functional>
#include <set>
#include <string>

#include "discprocess/disc_protocol.h"
#include "os/process.h"
#include "storage/partition.h"
#include "tmf/tmf_protocol.h"

namespace encompass::tmf {

/// Per-process file-system access layer. Lives inside a Process (server,
/// TCP, ...); all calls are asynchronous.
class FileSystem {
 public:
  /// Completion callback: status plus the raw reply payload (operation
  /// specific; see disc_protocol.h).
  using Callback = std::function<void(const Status&, const Bytes&)>;

  FileSystem(os::Process* owner, const storage::Catalog* catalog)
      : owner_(owner), catalog_(catalog) {}

  /// Point read; `lock` requests the record lock for the current transid.
  void Read(const std::string& file, const Slice& key, bool lock, Callback cb);
  /// Positioned read; reply payload decodes with SeekReply.
  void Seek(const std::string& file, const Slice& key, bool inclusive,
            Callback cb);
  /// Batched browse scan from a position (reply decodes with ScanReply).
  /// Stays within the partition owning `key`; callers cross partitions by
  /// re-issuing from the partition bound. max_records 0 = server default.
  void Scan(const std::string& file, const Slice& key, bool inclusive,
            uint32_t max_records, Callback cb);
  /// Insert; reply payload is the assigned key.
  void Insert(const std::string& file, const Slice& key, const Slice& record,
              Callback cb);
  void Update(const std::string& file, const Slice& key, const Slice& record,
              Callback cb);
  void Delete(const std::string& file, const Slice& key, Callback cb);
  /// Alternate-key lookup on the partition owning `partition_key` (indices
  /// are partition-local); reply payload is length-prefixed primary keys,
  /// NotFound when no record carries the value.
  void ReadAlternate(const std::string& file, const std::string& field,
                     const std::string& value, const Slice& partition_key,
                     Callback cb);
  /// File-granularity lock on every partition of the file.
  void LockFile(const std::string& file, Callback cb);

  /// Registers `dest` as a participant of the caller's current transaction
  /// (no-op if local, already registered, or no transaction). Public because
  /// the TCP also needs it before SENDing to a remote server.
  void EnsureRemote(net::NodeId dest, std::function<void(const Status&)> cb);

  /// Lock-wait timeout applied to disc requests (0 = DISCPROCESS default).
  void set_lock_timeout(SimDuration t) { lock_timeout_ = t; }

 private:
  void DiscOp(uint32_t tag, const std::string& file, const Slice& routing_key,
              discprocess::DiscRequest req, Callback cb);
  void SendToPartition(uint32_t tag, const storage::PartitionEntry& part,
                       discprocess::DiscRequest req, Callback cb);

  os::Process* owner_;
  const storage::Catalog* catalog_;
  SimDuration lock_timeout_ = 0;
  /// (transid, node) pairs already registered — avoids repeat TMP round
  /// trips from this process. The TMP itself dedups across processes.
  std::set<std::pair<uint64_t, net::NodeId>> ensured_;
};

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_FILE_SYSTEM_H_
