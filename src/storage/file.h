// Structured files: the three ENCOMPASS file organizations (key-sequenced,
// relative, entry-sequenced) behind a uniform record-oriented interface,
// with automatic maintenance of alternate-key (secondary) indices declared
// in the file's schema.

#ifndef ENCOMPASS_STORAGE_FILE_H_
#define ENCOMPASS_STORAGE_FILE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/bplus_tree.h"
#include "storage/record.h"

namespace encompass::storage {

/// ENCOMPASS file organizations.
enum class FileOrganization : uint8_t {
  kKeySequenced = 0,   ///< B+tree on a byte-string primary key
  kRelative = 1,       ///< records addressed by record number
  kEntrySequenced = 2, ///< append-only; record number assigned at append
};

const char* FileOrganizationName(FileOrganization org);

/// Mutation kinds — shared with audit records and transaction undo.
enum class MutationOp : uint8_t {
  kInsert = 0,
  kUpdate = 1,
  kDelete = 2,
};

/// Encodes a record number as a big-endian key (preserves numeric order).
Bytes EncodeRecnum(uint64_t n);
/// Decodes a big-endian record-number key; false if not 8 bytes.
bool DecodeRecnum(const Slice& key, uint64_t* n);

/// B+-tree node size of key-sequenced files.
constexpr size_t kBlockSize = 4096;

/// Options fixed at file creation.
struct FileOptions {
  bool audited = false;   ///< TMF protects this file (audit images generated)
  FileSchema schema;      ///< alternate-key declaration
};

/// Abstract structured file. Keys and records are byte strings; for relative
/// and entry-sequenced files the key is an EncodeRecnum record number.
class StructuredFile {
 public:
  StructuredFile(std::string name, FileOptions options)
      : name_(std::move(name)), options_(std::move(options)) {}
  virtual ~StructuredFile() = default;

  const std::string& name() const { return name_; }
  bool audited() const { return options_.audited; }
  const FileSchema& schema() const { return options_.schema; }
  virtual FileOrganization organization() const = 0;

  // -- Primary-key operations --------------------------------------------------

  /// Inserts a record under an explicit key. For entry-sequenced files pass
  /// an empty key and read the assigned key from *assigned_key.
  virtual Status Insert(const Slice& key, const Slice& record,
                        Bytes* assigned_key = nullptr) = 0;
  virtual Status Update(const Slice& key, const Slice& record) = 0;
  virtual Status Delete(const Slice& key) = 0;
  virtual Result<Bytes> Read(const Slice& key) const = 0;
  /// First entry with key >= (inclusive) or > (exclusive) the given key.
  virtual Result<TreeEntry> Seek(const Slice& key, bool inclusive) const = 0;
  virtual size_t record_count() const = 0;
  /// Depth of the physical access path (index levels); drives the latency
  /// model in the DISCPROCESS.
  virtual int access_depth() const { return 1; }

  /// In-order visit of all entries.
  virtual void ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) const = 0;

  // -- Alternate keys ----------------------------------------------------------

  /// Primary keys of all records whose `field` equals `value`. The field
  /// must be declared in the schema. Results in primary-key order.
  Result<std::vector<Bytes>> LookupAlternate(const std::string& field,
                                             const std::string& value) const;

  // -- Archival -----------------------------------------------------------------

  /// Appends a self-contained snapshot of the file content.
  virtual void ArchiveTo(Bytes* out) const = 0;
  /// Replaces content from an ArchiveTo image (indices are rebuilt).
  virtual Status RestoreFrom(Slice* in) = 0;

 protected:
  /// Updates alternate-key indices for one record transition. Call with the
  /// record image before (empty slice if inserting) and after (empty slice
  /// if deleting) the mutation.
  void MaintainIndices(const Slice& key, const Slice& before, const Slice& after);
  /// Rebuilds all indices by scanning the file (used after restore).
  void RebuildIndices();
  bool HasIndices() const { return !options_.schema.alternate_keys.empty(); }

  std::string name_;
  FileOptions options_;

 private:
  // field -> (field value -> primary keys). Ordered for deterministic scans.
  std::map<std::string, std::multimap<std::string, Bytes>> indices_;
};

/// Key-sequenced file: B+tree with prefix-compressed archival.
class KeySequencedFile : public StructuredFile {
 public:
  KeySequencedFile(std::string name, FileOptions options);
  FileOrganization organization() const override {
    return FileOrganization::kKeySequenced;
  }
  Status Insert(const Slice& key, const Slice& record, Bytes* assigned_key) override;
  Status Update(const Slice& key, const Slice& record) override;
  Status Delete(const Slice& key) override;
  Result<Bytes> Read(const Slice& key) const override;
  Result<TreeEntry> Seek(const Slice& key, bool inclusive) const override;
  size_t record_count() const override { return tree_.size(); }
  int access_depth() const override { return tree_.height(); }
  void ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) const override;
  void ArchiveTo(Bytes* out) const override;
  Status RestoreFrom(Slice* in) override;

  /// Compression ratio of the archived form vs raw data (1.0 = none).
  double CompressionRatio() const;

 private:
  BPlusTree tree_;
};

/// Relative file: records addressed by caller-chosen record number.
class RelativeFile : public StructuredFile {
 public:
  RelativeFile(std::string name, FileOptions options)
      : StructuredFile(std::move(name), std::move(options)) {}
  FileOrganization organization() const override {
    return FileOrganization::kRelative;
  }
  Status Insert(const Slice& key, const Slice& record, Bytes* assigned_key) override;
  Status Update(const Slice& key, const Slice& record) override;
  Status Delete(const Slice& key) override;
  Result<Bytes> Read(const Slice& key) const override;
  Result<TreeEntry> Seek(const Slice& key, bool inclusive) const override;
  size_t record_count() const override { return slots_.size(); }
  void ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) const override;
  void ArchiveTo(Bytes* out) const override;
  Status RestoreFrom(Slice* in) override;

 private:
  std::map<uint64_t, Bytes> slots_;
};

/// Entry-sequenced file: append-only log of records. Appends assign the next
/// record number; updates are allowed (audit compensation needs them
/// internally); user deletes are rejected.
class EntrySequencedFile : public StructuredFile {
 public:
  EntrySequencedFile(std::string name, FileOptions options)
      : StructuredFile(std::move(name), std::move(options)) {}
  FileOrganization organization() const override {
    return FileOrganization::kEntrySequenced;
  }
  /// key must be empty (entries are assigned numbers) — except during
  /// transaction backout, which re-removes by assigned key via RemoveEntry.
  Status Insert(const Slice& key, const Slice& record, Bytes* assigned_key) override;
  Status Update(const Slice& key, const Slice& record) override;
  /// Entry-sequenced files do not support logical deletion.
  Status Delete(const Slice& key) override;
  Result<Bytes> Read(const Slice& key) const override;
  Result<TreeEntry> Seek(const Slice& key, bool inclusive) const override;
  size_t record_count() const override { return entries_.size(); }
  void ForEach(
      const std::function<void(const Slice&, const Slice&)>& fn) const override;
  void ArchiveTo(Bytes* out) const override;
  Status RestoreFrom(Slice* in) override;

  /// Physical removal used only by transaction backout to undo an append.
  Status RemoveEntry(const Slice& key);

 private:
  std::map<uint64_t, Bytes> entries_;
  uint64_t next_seq_ = 1;
};

/// Factory for the three organizations.
std::unique_ptr<StructuredFile> MakeFile(FileOrganization org, std::string name,
                                         FileOptions options);

}  // namespace encompass::storage

#endif  // ENCOMPASS_STORAGE_FILE_H_
