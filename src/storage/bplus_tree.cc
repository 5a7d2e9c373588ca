#include "storage/bplus_tree.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace encompass::storage {

/// Tree node. Leaves hold parallel keys/values; internal nodes hold children
/// with keys[i] = smallest key in children[i+1] (so children.size() ==
/// keys.size() + 1).
struct BPlusTree::Node {
  bool leaf = true;
  std::vector<Bytes> keys;
  std::vector<Bytes> values;                    // leaf only
  std::vector<std::unique_ptr<Node>> children;  // internal only
  Node* next = nullptr;                         // leaf chain
  size_t byte_size = 0;                         // approx. serialized size

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
    size_t lo = 0, hi = keys.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Slice(keys[mid]).Compare(key) < 0) lo = mid + 1;
      else hi = mid;
    }
    return lo;
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
  bool replaced = false;
  std::unique_ptr<SplitResult> split;
  if (!InsertRec(root_.get(), key, value, /*allow_replace=*/false, &replaced,
                 &split)) {
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
  size_t idx = leaf->LowerBound(key);
  if (idx >= leaf->keys.size() || Slice(leaf->keys[idx]) != key) {
    return Status::NotFound("no such key");
  }
  leaf->byte_size -= leaf->values[idx].size();
  leaf->values[idx] = value.ToBytes();
  leaf->byte_size += value.size();
  // An oversize leaf after a grow-in-place is tolerated until the next
  // insert splits it; lookups are unaffected.
  return Status::Ok();
}

Status BPlusTree::Delete(const Slice& key) {
  Node* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key);
  if (idx >= leaf->keys.size() || Slice(leaf->keys[idx]) != key) {
    return Status::NotFound("no such key");
  }
  leaf->byte_size -= EntrySize(Slice(leaf->keys[idx]), Slice(leaf->values[idx]));
  leaf->keys.erase(leaf->keys.begin() + idx);
  leaf->values.erase(leaf->values.begin() + idx);
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
  Node* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key);
  if (idx >= leaf->keys.size() || Slice(leaf->keys[idx]) != key) {
    return Status::NotFound("no such key");
  }
  return leaf->values[idx];
}

Result<TreeEntry> BPlusTree::Seek(const Slice& key) const {
  Node* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key);
  while (leaf != nullptr && idx >= leaf->keys.size()) {
    leaf = leaf->next;
    idx = 0;
  }
  if (leaf == nullptr) return Status::EndOfFile();
  return TreeEntry{leaf->keys[idx], leaf->values[idx]};
}

Result<TreeEntry> BPlusTree::SeekAfter(const Slice& key) const {
  auto r = Seek(key);
  if (!r.ok()) return r;
  if (Slice(r->key) != key) return r;
  // Advance one position past the exact match.
  Node* leaf = FindLeaf(key);
  size_t idx = leaf->LowerBound(key) + 1;
  while (leaf != nullptr && idx >= leaf->keys.size()) {
    leaf = leaf->next;
    idx = 0;
  }
  if (leaf == nullptr) return Status::EndOfFile();
  return TreeEntry{leaf->keys[idx], leaf->values[idx]};
}

void BPlusTree::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->children[0].get();
  for (; node != nullptr; node = node->next) {
    for (size_t i = 0; i < node->keys.size(); ++i) {
      fn(Slice(node->keys[i]), Slice(node->values[i]));
    }
  }
}

bool BPlusTree::InsertRec(Node* node, const Slice& key, const Slice& value,
                          bool allow_replace, bool* replaced,
                          std::unique_ptr<SplitResult>* split) {
  if (node->leaf) {
    size_t idx = node->LowerBound(key);
    if (idx < node->keys.size() && Slice(node->keys[idx]) == key) {
      if (!allow_replace) return false;
      node->values[idx] = value.ToBytes();
      *replaced = true;
      return true;
    }
    node->keys.insert(node->keys.begin() + idx, key.ToBytes());
    node->values.insert(node->values.begin() + idx, value.ToBytes());
    node->byte_size += EntrySize(key, value);
    if (node->byte_size > block_size_ && node->keys.size() > 1) {
      SplitNode(node, split);
    }
    return true;
  }

  size_t child_idx = node->ChildIndex(key);
  std::unique_ptr<SplitResult> child_split;
  if (!InsertRec(node->children[child_idx].get(), key, value, allow_replace,
                 replaced, &child_split)) {
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
    size_t mid = node->keys.size() / 2;
    result->separator = node->keys[mid];
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid),
                       std::make_move_iterator(node->keys.end()));
    right->values.assign(std::make_move_iterator(node->values.begin() + mid),
                         std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
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
      for (size_t i = 0; i < n->keys.size(); ++i) {
        n->byte_size += EntrySize(Slice(n->keys[i]), Slice(n->values[i]));
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
  Bytes prev;
  ForEach([&](const Slice& key, const Slice& value) {
    size_t shared = SharedPrefixLength(Slice(prev), key);
    PutVarint64(out, shared);
    PutVarint64(out, key.size() - shared);
    out->insert(out->end(), key.data() + shared, key.data() + key.size());
    PutLengthPrefixed(out, value);
    prev = key.ToBytes();
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
