// Partitioning: ENCOMPASS files may be partitioned by primary-key range
// across multiple disc volumes, possibly on multiple network nodes. The
// PartitionMap is the catalog-side descriptor the file-system layer uses to
// route an operation to the DISCPROCESS owning the key.

#ifndef ENCOMPASS_STORAGE_PARTITION_H_
#define ENCOMPASS_STORAGE_PARTITION_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/file.h"

namespace encompass::storage {

/// One partition of a file: the key range below `upper_bound` (exclusive)
/// not covered by earlier partitions, hosted on `volume_process` at `node`.
struct PartitionEntry {
  Bytes upper_bound;          ///< exclusive bound; empty = +infinity (last)
  uint16_t node = 0;          ///< network node hosting the partition
  std::string volume_process; ///< DISCPROCESS name, e.g. "$DATA1"
};

/// Ordered key-range partitioning of one file.
class PartitionMap {
 public:
  PartitionMap() = default;
  /// Single-partition map (the common, unpartitioned case).
  PartitionMap(uint16_t node, std::string volume_process) {
    entries_.push_back(PartitionEntry{{}, node, std::move(volume_process)});
  }

  /// Appends a partition. Bounds must be added in ascending order; the last
  /// partition must have an empty (infinite) bound before use.
  void AddPartition(Bytes upper_bound, uint16_t node, std::string volume_process) {
    entries_.push_back(
        PartitionEntry{std::move(upper_bound), node, std::move(volume_process)});
  }

  /// Checks structural validity: non-empty, ascending bounds, infinite tail.
  Status Validate() const;

  /// Partition owning `key`. Precondition: Validate().ok().
  const PartitionEntry& Locate(const Slice& key) const;

  /// Index of the partition owning `key`.
  size_t LocateIndex(const Slice& key) const;

  const std::vector<PartitionEntry>& entries() const { return entries_; }
  size_t partition_count() const { return entries_.size(); }

 private:
  std::vector<PartitionEntry> entries_;
};

/// Data-dictionary entry describing one logical file.
struct FileDefinition {
  std::string name;
  FileOrganization organization = FileOrganization::kKeySequenced;
  bool audited = true;
  FileSchema schema;
  PartitionMap partitions;
};

/// The data dictionary: logical file name -> definition. In a real system
/// this lives in the data base; here it is distributed read-only config.
class Catalog {
 public:
  Status DefineFile(FileDefinition def);
  const FileDefinition* Find(const std::string& name) const;

 private:
  std::map<std::string, FileDefinition> files_;
};

}  // namespace encompass::storage

#endif  // ENCOMPASS_STORAGE_PARTITION_H_
