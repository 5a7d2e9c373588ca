#include "storage/bplus_tree.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace encompass::storage {

namespace {

/// Writes `v` as a varint at `dst` (room for 5 bytes); returns its length.
size_t EncodeLength(uint8_t* dst, uint32_t v) {
  size_t n = 0;
  while (v >= 0x80) {
    dst[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  dst[n++] = static_cast<uint8_t>(v);
  return n;
}

/// Reads the varint at `p` into *v; returns the byte after it. The leaf
/// segment holds only lengths the tree wrote itself.
const uint8_t* DecodeLength(const uint8_t* p, uint32_t* v) {
  uint32_t r = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t b = *p++;
    r |= static_cast<uint32_t>(b & 0x7f) << shift;
    if (b < 0x80) break;
  }
  *v = r;
  return p;
}

}  // namespace

/// Tree node. Internal nodes hold children with keys[i] = smallest key in
/// children[i+1] (so children.size() == keys.size() + 1). A leaf holds its
/// entries in one byte segment, back to back in key order, each as
/// [key length varint][key][value], plus the end offset of each entry.
struct BPlusTree::Node {
  bool leaf = true;
  std::vector<Bytes> keys;                      // internal only
  std::vector<std::unique_ptr<Node>> children;  // internal only
  Bytes segment;                                // leaf only
  std::vector<uint32_t> ends;                   // leaf only
  Node* next = nullptr;                         // leaf chain
  size_t byte_size = 0;                         // approx. serialized size

  /// Number of entries in a leaf.
  size_t size() const { return ends.size(); }
  /// Offset of leaf entry `i` in `segment`.
  size_t Begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  /// Key of leaf entry `i`.
  Slice Key(size_t i) const {
    uint32_t len = 0;
    const uint8_t* p = DecodeLength(segment.data() + Begin(i), &len);
    return Slice(p, len);
  }
  /// Value of leaf entry `i`.
  Slice Value(size_t i) const {
    const Slice key = Key(i);
    const uint8_t* p = key.data() + key.size();
    return Slice(p, static_cast<size_t>(segment.data() + ends[i] - p));
  }

  /// Shifts the end offsets of entries `from` onwards by `delta` bytes.
  void ShiftEnds(size_t from, ptrdiff_t delta) {
    for (size_t j = from; j < ends.size(); ++j) {
      ends[j] = static_cast<uint32_t>(static_cast<ptrdiff_t>(ends[j]) + delta);
    }
  }

  /// Index of the child to descend into for `key`.
  size_t ChildIndex(const Slice& key) const {
    // First key strictly greater than `key` bounds the child on the right.
    size_t lo = 0, hi = keys.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (key.Compare(Slice(keys[mid])) < 0) hi = mid;
      else lo = mid + 1;
    }
    return lo;
  }

  /// Index of the first key >= `key` in a leaf.
  size_t LowerBound(const Slice& key) const {
    size_t lo = 0, hi = size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Key(mid).Compare(key) < 0) lo = mid + 1;
      else hi = mid;
    }
    return lo;
  }

  /// True if leaf entry `idx` exists and holds `key`.
  bool Holds(size_t idx, const Slice& key) const {
    return idx < size() && Key(idx) == key;
  }

  /// Leaf entry `idx`, or the first entry after this leaf along the chain
  /// when `idx` is past its end; EndOfFile past the last leaf.
  Result<TreeEntry> EntryFrom(size_t idx) const {
    const Node* leaf = this;
    while (leaf != nullptr && idx >= leaf->size()) {
      leaf = leaf->next;
      idx = 0;
    }
    if (leaf == nullptr) return Status::EndOfFile();
    return TreeEntry{leaf->Key(idx).ToBytes(), leaf->Value(idx).ToBytes()};
  }

  /// Heap bytes of this subtree: each node plus the capacity of its
  /// segment, offsets, separator keys and child pointers.
  size_t HeapBytes() const {
    size_t n = sizeof(Node) + segment.capacity() +
               ends.capacity() * sizeof(uint32_t) +
               keys.capacity() * sizeof(Bytes) +
               children.capacity() * sizeof(std::unique_ptr<Node>);
    for (const auto& k : keys) n += k.capacity();
    for (const auto& c : children) n += c->HeapBytes();
    return n;
  }
};

struct BPlusTree::SplitResult {
  Bytes separator;  // smallest key of the new right sibling
  std::unique_ptr<Node> right;
};

BPlusTree::BPlusTree(size_t block_size)
    : block_size_(block_size < 256 ? 256 : block_size),
      root_(std::make_unique<Node>()) {}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

size_t BPlusTree::EntrySize(const Slice& key, const Slice& value) const {
  return key.size() + value.size() + 8;  // 8: length + bookkeeping overhead
}

BPlusTree::Node* BPlusTree::FindLeaf(const Slice& key) const {
  Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[node->ChildIndex(key)].get();
  }
  return node;
}

Status BPlusTree::Insert(const Slice& key, const Slice& value) {
  std::unique_ptr<SplitResult> split;
  if (!InsertRec(root_.get(), key, value, &split)) {
    return Status::AlreadyExists("key exists");
  }
  if (split != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys.push_back(std::move(split->separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    new_root->byte_size = new_root->keys[0].size() + 16;
    root_ = std::move(new_root);
    ++height_;
    ++node_count_;
  }
  ++size_;
  return Status::Ok();
}

Status BPlusTree::Update(const Slice& key, const Slice& value) {
  Node* leaf = FindLeaf(key);
  const size_t idx = leaf->LowerBound(key);
  if (!leaf->Holds(idx, key)) return Status::NotFound("no such key");
  // Grow or shrink the value at the entry's end, then overwrite it.
  const Slice old = leaf->Value(idx);
  const size_t at = static_cast<size_t>(old.data() - leaf->segment.data());
  const size_t old_size = old.size();
  const auto tail = leaf->segment.begin() + leaf->ends[idx];
  if (value.size() > old_size) {
    leaf->segment.insert(tail, value.size() - old_size, 0);
  } else {
    leaf->segment.erase(tail - static_cast<ptrdiff_t>(old_size - value.size()),
                        tail);
  }
  std::copy(value.data(), value.data() + value.size(),
            leaf->segment.begin() + static_cast<ptrdiff_t>(at));
  leaf->ShiftEnds(idx, static_cast<ptrdiff_t>(value.size()) -
                           static_cast<ptrdiff_t>(old_size));
  leaf->byte_size = leaf->byte_size - old_size + value.size();
  // An oversize leaf after a grow-in-place is tolerated until the next
  // insert splits it; lookups are unaffected.
  return Status::Ok();
}

Status BPlusTree::Delete(const Slice& key) {
  Node* leaf = FindLeaf(key);
  const size_t idx = leaf->LowerBound(key);
  if (!leaf->Holds(idx, key)) return Status::NotFound("no such key");
  leaf->byte_size -= EntrySize(leaf->Key(idx), leaf->Value(idx));
  const size_t begin = leaf->Begin(idx);
  const size_t end = leaf->ends[idx];
  leaf->segment.erase(leaf->segment.begin() + static_cast<ptrdiff_t>(begin),
                      leaf->segment.begin() + static_cast<ptrdiff_t>(end));
  leaf->ends.erase(leaf->ends.begin() + static_cast<ptrdiff_t>(idx));
  leaf->ShiftEnds(idx, -static_cast<ptrdiff_t>(end - begin));
  --size_;
  // Collapse a root with a single child so height reflects reality.
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children[0]);
    --height_;
    --node_count_;
  }
  return Status::Ok();
}

Result<Bytes> BPlusTree::Get(const Slice& key) const {
  const Node* leaf = FindLeaf(key);
  const size_t idx = leaf->LowerBound(key);
  if (!leaf->Holds(idx, key)) return Status::NotFound("no such key");
  return leaf->Value(idx).ToBytes();
}

Result<TreeEntry> BPlusTree::Seek(const Slice& key) const {
  const Node* leaf = FindLeaf(key);
  return leaf->EntryFrom(leaf->LowerBound(key));
}

Result<TreeEntry> BPlusTree::SeekAfter(const Slice& key) const {
  // A key lives in the leaf its separators route it to, so an exact match
  // is here or nowhere.
  const Node* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key);
  if (leaf->Holds(idx, key)) ++idx;
  return leaf->EntryFrom(idx);
}

void BPlusTree::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->children[0].get();
  for (; node != nullptr; node = node->next) {
    for (size_t i = 0; i < node->size(); ++i) fn(node->Key(i), node->Value(i));
  }
}

size_t BPlusTree::bytes() const { return root_->HeapBytes(); }

bool BPlusTree::InsertRec(Node* node, const Slice& key, const Slice& value,
                          std::unique_ptr<SplitResult>* split) {
  if (node->leaf) {
    const size_t idx = node->LowerBound(key);
    if (node->Holds(idx, key)) return false;
    // Open a gap for the entry at its position and write it there.
    uint8_t len[5];
    const size_t len_size = EncodeLength(len, static_cast<uint32_t>(key.size()));
    const size_t entry = len_size + key.size() + value.size();
    const size_t at = node->Begin(idx);
    assert(node->segment.size() + entry <= UINT32_MAX);
    auto p = node->segment.insert(
        node->segment.begin() + static_cast<ptrdiff_t>(at), entry, 0);
    p = std::copy(len, len + len_size, p);
    p = std::copy(key.data(), key.data() + key.size(), p);
    std::copy(value.data(), value.data() + value.size(), p);
    node->ends.insert(node->ends.begin() + static_cast<ptrdiff_t>(idx),
                      static_cast<uint32_t>(at + entry));
    node->ShiftEnds(idx + 1, static_cast<ptrdiff_t>(entry));
    node->byte_size += EntrySize(key, value);
    if (node->byte_size > block_size_ && node->size() > 1) {
      SplitNode(node, split);
    }
    return true;
  }

  size_t child_idx = node->ChildIndex(key);
  std::unique_ptr<SplitResult> child_split;
  if (!InsertRec(node->children[child_idx].get(), key, value, &child_split)) {
    return false;
  }
  if (child_split != nullptr) {
    node->byte_size += child_split->separator.size() + 16;
    node->keys.insert(node->keys.begin() + child_idx,
                      std::move(child_split->separator));
    node->children.insert(node->children.begin() + child_idx + 1,
                          std::move(child_split->right));
    if (node->byte_size > block_size_ && node->keys.size() > 2) {
      SplitNode(node, split);
    }
  }
  return true;
}

void BPlusTree::SplitNode(Node* node, std::unique_ptr<SplitResult>* split) {
  auto result = std::make_unique<SplitResult>();
  auto right = std::make_unique<Node>();
  right->leaf = node->leaf;

  if (node->leaf) {
    const size_t mid = node->size() / 2;
    const size_t cut = node->Begin(mid);
    right->segment.assign(node->segment.begin() + static_cast<ptrdiff_t>(cut),
                          node->segment.end());
    right->ends.reserve(node->size() - mid);
    for (size_t i = mid; i < node->size(); ++i) {
      right->ends.push_back(static_cast<uint32_t>(node->ends[i] - cut));
    }
    node->segment.resize(cut);
    node->ends.resize(mid);
    // Seal the left half: it holds exactly its entries until written again
    // (the right half was allocated to size).
    node->segment.shrink_to_fit();
    node->ends.shrink_to_fit();
    result->separator = right->Key(0).ToBytes();
    right->next = node->next;
    node->next = right.get();
  } else {
    size_t mid = node->keys.size() / 2;
    result->separator = std::move(node->keys[mid]);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                       std::make_move_iterator(node->keys.end()));
    right->children.assign(
        std::make_move_iterator(node->children.begin() + mid + 1),
        std::make_move_iterator(node->children.end()));
    node->keys.resize(mid);
    node->children.resize(mid + 1);
  }

  // Recompute byte sizes exactly after the move.
  auto recompute = [this](Node* n) {
    n->byte_size = 0;
    if (n->leaf) {
      for (size_t i = 0; i < n->size(); ++i) {
        n->byte_size += EntrySize(n->Key(i), n->Value(i));
      }
    } else {
      for (const auto& k : n->keys) n->byte_size += k.size() + 16;
    }
  };
  recompute(node);
  recompute(right.get());

  result->right = std::move(right);
  *split = std::move(result);
  ++node_count_;
}

void BPlusTree::SerializeTo(Bytes* out) const {
  PutVarint64(out, size_);
  // ForEach hands out slices into the leaf segments, which stay in place for
  // the whole walk, so the previous key is kept as a view, not a copy.
  Slice prev;
  ForEach([&](const Slice& key, const Slice& value) {
    size_t shared = SharedPrefixLength(prev, key);
    PutVarint64(out, shared);
    PutVarint64(out, key.size() - shared);
    out->insert(out->end(), key.data() + shared, key.data() + key.size());
    PutLengthPrefixed(out, value);
    prev = key;
  });
}

size_t BPlusTree::UncompressedDataSize() const {
  size_t total = 0;
  ForEach([&](const Slice& key, const Slice& value) {
    total += key.size() + value.size();
  });
  return total;
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Deserialize(Slice* in,
                                                          size_t block_size) {
  uint64_t count;
  if (!GetVarint64(in, &count)) return DecodeError("tree entry count");
  auto tree = std::make_unique<BPlusTree>(block_size);
  Bytes prev;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t shared, unshared;
    if (!GetVarint64(in, &shared) || !GetVarint64(in, &unshared)) {
      return DecodeError("tree key lengths");
    }
    if (shared > prev.size() || in->size() < unshared) {
      return DecodeError("tree key bytes");
    }
    Bytes key(prev.begin(), prev.begin() + shared);
    key.insert(key.end(), in->data(), in->data() + unshared);
    in->RemovePrefix(unshared);
    Bytes value;
    if (!GetLengthPrefixedBytes(in, &value)) return DecodeError("tree value");
    Status s = tree->Insert(Slice(key), Slice(value));
    if (!s.ok()) return Status::Corruption("duplicate key in serialized tree");
    prev = std::move(key);
  }
  return tree;
}

}  // namespace encompass::storage
