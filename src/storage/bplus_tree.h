// BPlusTree: the core structure of key-sequenced files — an order-preserving
// map from byte-string keys to byte-string values with block-size-bounded
// nodes, a linked leaf level for range scans, and prefix-compressed
// serialization (used for archiving and for on-disc space accounting).
//
// Deletion does not rebalance (underfull nodes are tolerated, as in many
// production trees); an empty internal root collapses.

#ifndef ENCOMPASS_STORAGE_BPLUS_TREE_H_
#define ENCOMPASS_STORAGE_BPLUS_TREE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace encompass::storage {

/// A key/value entry returned from lookups and scans.
struct TreeEntry {
  Bytes key;
  Bytes value;
};

/// Byte-ordered B+tree with size-bounded nodes.
class BPlusTree {
 public:
  /// block_size bounds the serialized size of a node before it splits.
  explicit BPlusTree(size_t block_size = 4096);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts a new key. AlreadyExists if present.
  Status Insert(const Slice& key, const Slice& value);
  /// Replaces the value of an existing key. NotFound if absent.
  Status Update(const Slice& key, const Slice& value);
  /// Removes a key. NotFound if absent.
  Status Delete(const Slice& key);

  /// Point lookup.
  Result<Bytes> Get(const Slice& key) const;

  /// First entry with key >= target; EndOfFile when past the end.
  Result<TreeEntry> Seek(const Slice& key) const;
  /// First entry with key > target; EndOfFile when past the end.
  Result<TreeEntry> SeekAfter(const Slice& key) const;

  /// In-order visit of every entry.
  void ForEach(const std::function<void(const Slice&, const Slice&)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of levels (1 for a lone leaf). Drives the disc-access model.
  int height() const { return height_; }
  /// Total node count (leaf + internal).
  size_t node_count() const { return node_count_; }

  /// Serializes all entries with front (prefix) key compression.
  void SerializeTo(Bytes* out) const;
  /// Sum of raw key+value bytes (for compression-ratio accounting).
  size_t UncompressedDataSize() const;
  /// Rebuilds a tree from SerializeTo output, consuming exactly the bytes
  /// the encoding occupies from *in.
  static Result<std::unique_ptr<BPlusTree>> Deserialize(Slice* in,
                                                        size_t block_size);

 private:
  struct Node;
  struct SplitResult;

  size_t EntrySize(const Slice& key, const Slice& value) const;
  Node* FindLeaf(const Slice& key) const;
  bool InsertRec(Node* node, const Slice& key, const Slice& value, bool allow_replace,
                 bool* replaced, std::unique_ptr<SplitResult>* split);
  void SplitNode(Node* node, std::unique_ptr<SplitResult>* split);

  size_t block_size_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int height_ = 1;
  size_t node_count_ = 1;
};

}  // namespace encompass::storage

#endif  // ENCOMPASS_STORAGE_BPLUS_TREE_H_
