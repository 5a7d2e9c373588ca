// Volume: one logical disc volume — the unit a DISCPROCESS pair controls.
// Models what the paper's storage architecture needs:
//   * mirrored drives (write-both / read-either, drive failure and revive),
//   * a main-memory cache with an explicit durable/volatile boundary: data
//     base updates are NOT forced to disc at update time (the NonStop claim);
//     unflushed updates are lost on total node failure (DropVolatile), which
//     is exactly the case ROLLFORWARD recovers. The boundary is kept as a
//     durable image per file, copied on the first write after a flush, so
//     it costs the live state of the written files, not the write history,
//   * structured files (the three organizations) living on the volume, and
//   * whole-volume archives for ROLLFORWARD.
//
// A Volume is passive hardware: latency is charged by the DISCPROCESS. It
// either charges a flat disc_ios * kDiscIoLatency (legacy model), or — with
// overlap_mirror_reads — consults the volume's per-drive schedule, which
// implements the paper's read-either rule: a read occupies the drive that
// frees first.

#ifndef ENCOMPASS_STORAGE_VOLUME_H_
#define ENCOMPASS_STORAGE_VOLUME_H_

#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "sim/stats.h"
#include "storage/file.h"

namespace encompass::storage {

/// Volume creation parameters.
struct VolumeConfig {
  size_t cache_capacity = 4096;///< cached records ("most recently referenced
                               ///  blocks of data in main memory")
};

/// Outcome of one volume operation.
struct OpResult {
  Status status;
  int disc_ios = 0;   ///< physical reads this op required (0 on cache hit)
  Bytes value;        ///< Read/Seek: record image
  Bytes key;          ///< Seek: located key; Insert: assigned key
  Bytes before;       ///< Mutate: prior record image (for the audit trail)
  bool existed = false;  ///< Mutate: a prior image existed
};

/// One scheduled physical disc read (see Volume::ScheduleRead).
struct DriveSchedule {
  SimTime complete = 0;  ///< simulated completion time of the transfer
  int drive = 0;         ///< drive the read was placed on
  int queue_depth = 0;   ///< ops already pending on that drive at issue time
};

/// A mirrored logical disc volume holding structured files.
class Volume {
 public:
  explicit Volume(std::string name, VolumeConfig config = {});

  const std::string& name() const { return name_; }
  const VolumeConfig& config() const { return config_; }

  // -- Files -------------------------------------------------------------------

  Status CreateFile(const std::string& fname, FileOrganization org,
                    FileOptions options = {});
  StructuredFile* Find(const std::string& fname) const;

  // -- Record operations ---------------------------------------------------------

  /// Applies a mutation and captures the before-image (unforced write-back:
  /// the change is volatile until Flush). For an entry-sequenced append pass
  /// an empty key; the assigned key comes back in OpResult::key.
  OpResult Mutate(const std::string& fname, MutationOp op, const Slice& key,
                  const Slice& record);

  /// Applies the compensating change for a mutation being backed out:
  /// insert -> physical removal, update -> restore the before-image,
  /// delete -> re-insert the before-image. Idempotent: re-undoing an already
  /// compensated mutation is a no-op (a takeover can replay backout work).
  /// The compensation itself is a volatile write like any other.
  OpResult ApplyUndo(const std::string& fname, MutationOp original_op,
                     const Slice& key, const Slice& before);

  /// Point read through the cache.
  OpResult ReadRecord(const std::string& fname, const Slice& key);

  /// Positions to the first record with key >= (inclusive) or > the given key.
  OpResult SeekRecord(const std::string& fname, const Slice& key, bool inclusive);

  /// Alternate-key lookup; OpResult::value holds length-prefixed primary keys.
  OpResult ReadAlternate(const std::string& fname, const std::string& field,
                         const std::string& value);

  // -- Durability boundary ---------------------------------------------------------

  /// Forces all volatile updates to disc (drops every durable image: the
  /// live content is now the disc copy). Returns the number of physical
  /// writes performed (unflushed writes x up drives).
  int Flush();
  /// Successful writes since the last flush.
  size_t VolatileCount() const { return volatile_writes_; }
  /// Total node failure: every unflushed update is lost. Each file written
  /// since the last flush is restored in place from its durable image. The
  /// restore is the archive's: a key-sequenced tree is rebuilt, and an
  /// entry-sequenced file's next record number rolls back with its entries.
  void DropVolatile();
  /// Heap bytes the durable images hold; 0 right after a flush.
  size_t durable_bytes() const;

  // -- Mirrored drives ---------------------------------------------------------------

  int drive_count() const { return 2; }  ///< every volume is a mirrored pair
  /// Fails one physical drive. Service continues on the mirror.
  void FailDrive(int drive);
  /// Revives a failed drive by copying from the survivor; returns the number
  /// of records copied (the caller charges proportional time).
  Result<size_t> ReviveDrive(int drive);
  /// At least one drive is up.
  bool Usable() const;
  int UpDrives() const;

  // -- Drive schedule (read-either timing model) -----------------------------------

  /// Places a physical read of `service` duration on whichever up drive
  /// frees first (the paper's read-either rule): concurrent reads alternate
  /// across the mirror and overlap. Advances that drive's busy-until time.
  DriveSchedule ScheduleRead(SimTime now, SimDuration service);
  /// Physical reads placed on drive `d` by ScheduleRead.
  int64_t drive_reads(int drive) const;

  // -- Archive (for ROLLFORWARD) -------------------------------------------------------

  /// Self-contained snapshot of every file (schema + content). Call at a
  /// transaction-consistent point (online fuzzy archives are out of scope).
  Bytes Archive() const;
  Status RestoreFromArchive(const Slice& archive);

  // -- Statistics ---------------------------------------------------------------------

  /// Mirrors the volume's I/O statistics into the simulation-wide Stats
  /// registry as storage.<volume>.* counters. Optional: an unbound volume
  /// (unit tests, tools) keeps only its local counters. Idempotent.
  void BindStats(sim::Stats* stats);

  int64_t cache_hits() const { return cache_hits_; }
  int64_t cache_misses() const { return cache_misses_; }
  int64_t physical_reads() const { return physical_reads_; }

 private:
  /// Copy-on-first-write: saves `file`'s durable image before the first
  /// write to it since the last flush.
  void SaveImage(uint32_t file_id, const StructuredFile& file);
  /// Counts one unforced write, and marks every down drive stale (it missed
  /// the write).
  void NoteWrite();

  /// One resident cache line: which record of which (interned) file.
  struct CacheEntry {
    uint32_t file_id;
    Bytes key;
  };
  using LruList = std::list<CacheEntry>;

  /// Index key viewing the bytes owned by the LRU node (list nodes are
  /// pointer-stable across splice), so lookups hash caller-provided slices
  /// directly — a cache hit allocates nothing.
  struct CacheRef {
    uint32_t file_id;
    Slice key;
  };
  struct CacheRefHash {
    size_t operator()(const CacheRef& r) const {
      size_t h = std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(r.key.data()), r.key.size()));
      return h ^ (static_cast<size_t>(r.file_id) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct CacheRefEq {
    bool operator()(const CacheRef& a, const CacheRef& b) const {
      return a.file_id == b.file_id && a.key == b.key;
    }
  };

  /// Physically removes a record regardless of organization (undo of insert).
  Status PhysicalRemove(StructuredFile* file, const Slice& key);
  /// Stable dense id the cache interns `fname` to; creates one on first use.
  uint32_t CacheFileId(const std::string& fname);
  void CacheTouch(uint32_t file_id, const Slice& key);
  bool CacheHit(uint32_t file_id, const Slice& key);
  void CacheErase(uint32_t file_id, const Slice& key);
  void CacheClear();

  std::string name_;
  VolumeConfig config_;
  std::map<std::string, std::unique_ptr<StructuredFile>> files_;
  // Durable image (ArchiveTo bytes) of each file written since the last
  // flush, indexed by interned file id (CacheFileId). Empty = clean: an
  // archive image is never empty (it starts with the record count).
  std::vector<Bytes> images_;
  size_t volatile_writes_ = 0;
  bool drive_up_[2] = {true, true};
  bool drive_stale_[2] = {false, false};

  // Drive schedule (consulted only under overlap_mirror_reads).
  SimTime drive_busy_until_[2] = {0, 0};
  std::deque<SimTime> drive_inflight_[2];  ///< completion times, pruned lazily
  int64_t drive_reads_[2] = {0, 0};

  // LRU cache over (interned file id, record key) pairs.
  std::unordered_map<std::string, uint32_t> cache_file_ids_;
  LruList lru_;
  std::unordered_map<CacheRef, LruList::iterator, CacheRefHash, CacheRefEq>
      cache_;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
  int64_t physical_reads_ = 0;

  // Optional mirror into the simulation's Stats registry (BindStats).
  sim::Stats* stats_ = nullptr;
  sim::MetricId m_cache_hits_, m_cache_misses_;
  sim::MetricId m_physical_reads_, m_physical_writes_;
};

}  // namespace encompass::storage

#endif  // ENCOMPASS_STORAGE_VOLUME_H_
