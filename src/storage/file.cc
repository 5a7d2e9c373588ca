#include "storage/file.h"

#include "common/coding.h"

namespace encompass::storage {

const char* FileOrganizationName(FileOrganization org) {
  switch (org) {
    case FileOrganization::kKeySequenced: return "key-sequenced";
    case FileOrganization::kRelative: return "relative";
    case FileOrganization::kEntrySequenced: return "entry-sequenced";
  }
  return "unknown";
}

Bytes EncodeRecnum(uint64_t n) {
  Bytes key(8);
  for (int i = 0; i < 8; ++i) key[i] = static_cast<uint8_t>(n >> (8 * (7 - i)));
  return key;
}

bool DecodeRecnum(const Slice& key, uint64_t* n) {
  if (key.size() != 8) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | key[i];
  *n = r;
  return true;
}

// ---------------------------------------------------------------------------
// StructuredFile: alternate-key index maintenance
// ---------------------------------------------------------------------------

void StructuredFile::MaintainIndices(const Slice& key, const Slice& before,
                                     const Slice& after) {
  if (!HasIndices()) return;
  Record before_rec, after_rec;
  if (!before.empty()) {
    auto r = Record::Decode(before);
    if (r.ok()) before_rec = *r;
  }
  if (!after.empty()) {
    auto r = Record::Decode(after);
    if (r.ok()) after_rec = *r;
  }
  for (const auto& field : options_.schema.alternate_keys) {
    const std::string old_val = before.empty() ? "" : before_rec.Get(field);
    const std::string new_val = after.empty() ? "" : after_rec.Get(field);
    if (!before.empty() && (after.empty() || old_val != new_val)) {
      auto& idx = indices_[field];
      auto range = idx.equal_range(old_val);
      for (auto it = range.first; it != range.second; ++it) {
        if (Slice(it->second) == key) {
          idx.erase(it);
          break;
        }
      }
    }
    if (!after.empty() && (before.empty() || old_val != new_val)) {
      indices_[field].emplace(new_val, key.ToBytes());
    }
  }
}

void StructuredFile::RebuildIndices() {
  indices_.clear();
  if (!HasIndices()) return;
  ForEach([this](const Slice& key, const Slice& record) {
    MaintainIndices(key, Slice(), record);
  });
}

Result<std::vector<Bytes>> StructuredFile::LookupAlternate(
    const std::string& field, const std::string& value) const {
  bool declared = false;
  for (const auto& f : options_.schema.alternate_keys) declared |= (f == field);
  if (!declared) {
    return Status::InvalidArgument("field '" + field + "' is not an alternate key");
  }
  std::vector<Bytes> pks;
  auto idx_it = indices_.find(field);
  if (idx_it != indices_.end()) {
    auto range = idx_it->second.equal_range(value);
    for (auto it = range.first; it != range.second; ++it) pks.push_back(it->second);
    std::sort(pks.begin(), pks.end(),
              [](const Bytes& a, const Bytes& b) { return Slice(a) < Slice(b); });
  }
  return pks;
}

// ---------------------------------------------------------------------------
// KeySequencedFile
// ---------------------------------------------------------------------------

KeySequencedFile::KeySequencedFile(std::string name, FileOptions options)
    : StructuredFile(std::move(name), options), tree_(kBlockSize) {}

Status KeySequencedFile::Insert(const Slice& key, const Slice& record,
                                Bytes* assigned_key) {
  if (key.empty()) return Status::InvalidArgument("key-sequenced insert needs a key");
  ENCOMPASS_RETURN_IF_ERROR(tree_.Insert(key, record));
  if (assigned_key != nullptr) *assigned_key = key.ToBytes();
  MaintainIndices(key, Slice(), record);
  return Status::Ok();
}

Status KeySequencedFile::Update(const Slice& key, const Slice& record) {
  Bytes before;
  if (HasIndices()) {
    auto r = tree_.Get(key);
    if (!r.ok()) return r.status();
    before = std::move(*r);
  }
  ENCOMPASS_RETURN_IF_ERROR(tree_.Update(key, record));
  MaintainIndices(key, Slice(before), record);
  return Status::Ok();
}

Status KeySequencedFile::Delete(const Slice& key) {
  Bytes before;
  if (HasIndices()) {
    auto r = tree_.Get(key);
    if (!r.ok()) return r.status();
    before = std::move(*r);
  }
  ENCOMPASS_RETURN_IF_ERROR(tree_.Delete(key));
  MaintainIndices(key, Slice(before), Slice());
  return Status::Ok();
}

Result<Bytes> KeySequencedFile::Read(const Slice& key) const {
  return tree_.Get(key);
}

Result<TreeEntry> KeySequencedFile::Seek(const Slice& key, bool inclusive) const {
  return inclusive ? tree_.Seek(key) : tree_.SeekAfter(key);
}

void KeySequencedFile::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  tree_.ForEach(fn);
}

void KeySequencedFile::ArchiveTo(Bytes* out) const { tree_.SerializeTo(out); }

Status KeySequencedFile::RestoreFrom(Slice* in) {
  auto restored = BPlusTree::Deserialize(in, kBlockSize);
  if (!restored.ok()) return restored.status();
  tree_ = std::move(**restored);
  RebuildIndices();
  return Status::Ok();
}

double KeySequencedFile::CompressionRatio() const {
  size_t raw = tree_.UncompressedDataSize();
  if (raw == 0) return 1.0;
  Bytes compressed;
  tree_.SerializeTo(&compressed);
  return static_cast<double>(compressed.size()) / static_cast<double>(raw);
}

// ---------------------------------------------------------------------------
// RelativeFile
// ---------------------------------------------------------------------------

namespace {

Status BadRecnum() { return Status::InvalidArgument("bad record-number key"); }

void ArchiveSlots(const std::map<uint64_t, Bytes>& slots, Bytes* out) {
  PutVarint64(out, slots.size());
  for (const auto& [num, rec] : slots) {
    PutVarint64(out, num);
    PutLengthPrefixed(out, Slice(rec));
  }
}

Status RestoreSlots(Slice* in, std::map<uint64_t, Bytes>* slots) {
  uint64_t n;
  if (!GetVarint64(in, &n)) return DecodeError("slot count");
  slots->clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t num;
    Bytes rec;
    if (!GetVarint64(in, &num) || !GetLengthPrefixedBytes(in, &rec)) {
      return DecodeError("slot entry");
    }
    (*slots)[num] = std::move(rec);
  }
  return Status::Ok();
}

Result<TreeEntry> SeekSlots(const std::map<uint64_t, Bytes>& slots,
                            const Slice& key, bool inclusive) {
  uint64_t n;
  if (key.empty()) n = 0;
  else if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = inclusive ? slots.lower_bound(n) : slots.upper_bound(n);
  if (it == slots.end()) return Status::EndOfFile();
  return TreeEntry{EncodeRecnum(it->first), it->second};
}

}  // namespace

Status RelativeFile::Insert(const Slice& key, const Slice& record,
                            Bytes* assigned_key) {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  if (slots_.count(n)) return Status::AlreadyExists("slot occupied");
  slots_[n] = record.ToBytes();
  if (assigned_key != nullptr) *assigned_key = key.ToBytes();
  MaintainIndices(key, Slice(), record);
  return Status::Ok();
}

Status RelativeFile::Update(const Slice& key, const Slice& record) {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = slots_.find(n);
  if (it == slots_.end()) return Status::NotFound("empty slot");
  Bytes before = std::move(it->second);
  it->second = record.ToBytes();
  MaintainIndices(key, Slice(before), record);
  return Status::Ok();
}

Status RelativeFile::Delete(const Slice& key) {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = slots_.find(n);
  if (it == slots_.end()) return Status::NotFound("empty slot");
  Bytes before = std::move(it->second);
  slots_.erase(it);
  MaintainIndices(key, Slice(before), Slice());
  return Status::Ok();
}

Result<Bytes> RelativeFile::Read(const Slice& key) const {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = slots_.find(n);
  if (it == slots_.end()) return Status::NotFound("empty slot");
  return it->second;
}

Result<TreeEntry> RelativeFile::Seek(const Slice& key, bool inclusive) const {
  return SeekSlots(slots_, key, inclusive);
}

void RelativeFile::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  for (const auto& [num, rec] : slots_) {
    fn(Slice(EncodeRecnum(num)), Slice(rec));
  }
}

void RelativeFile::ArchiveTo(Bytes* out) const { ArchiveSlots(slots_, out); }

Status RelativeFile::RestoreFrom(Slice* in) {
  ENCOMPASS_RETURN_IF_ERROR(RestoreSlots(in, &slots_));
  RebuildIndices();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// EntrySequencedFile
// ---------------------------------------------------------------------------

Status EntrySequencedFile::Insert(const Slice& key, const Slice& record,
                                  Bytes* assigned_key) {
  uint64_t n;
  if (key.empty()) {
    n = next_seq_++;
  } else {
    // Re-insert under a previously assigned key (used when a backout of a
    // deletion-compensating path must restore an entry).
    if (!DecodeRecnum(key, &n)) return BadRecnum();
    if (entries_.count(n)) return Status::AlreadyExists("entry exists");
    if (n >= next_seq_) next_seq_ = n + 1;
  }
  Bytes k = EncodeRecnum(n);
  entries_[n] = record.ToBytes();
  if (assigned_key != nullptr) *assigned_key = k;
  MaintainIndices(Slice(k), Slice(), record);
  return Status::Ok();
}

Status EntrySequencedFile::Update(const Slice& key, const Slice& record) {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = entries_.find(n);
  if (it == entries_.end()) return Status::NotFound("no such entry");
  Bytes before = std::move(it->second);
  it->second = record.ToBytes();
  MaintainIndices(key, Slice(before), record);
  return Status::Ok();
}

Status EntrySequencedFile::Delete(const Slice&) {
  return Status::NotSupported("entry-sequenced files do not support deletion");
}

Status EntrySequencedFile::RemoveEntry(const Slice& key) {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = entries_.find(n);
  if (it == entries_.end()) return Status::NotFound("no such entry");
  Bytes before = std::move(it->second);
  entries_.erase(it);
  MaintainIndices(key, Slice(before), Slice());
  return Status::Ok();
}

Result<Bytes> EntrySequencedFile::Read(const Slice& key) const {
  uint64_t n;
  if (!DecodeRecnum(key, &n)) return BadRecnum();
  auto it = entries_.find(n);
  if (it == entries_.end()) return Status::NotFound("no such entry");
  return it->second;
}

Result<TreeEntry> EntrySequencedFile::Seek(const Slice& key, bool inclusive) const {
  return SeekSlots(entries_, key, inclusive);
}

void EntrySequencedFile::ForEach(
    const std::function<void(const Slice&, const Slice&)>& fn) const {
  for (const auto& [num, rec] : entries_) {
    fn(Slice(EncodeRecnum(num)), Slice(rec));
  }
}

void EntrySequencedFile::ArchiveTo(Bytes* out) const {
  Bytes body;
  ArchiveSlots(entries_, &body);
  PutVarint64(&body, next_seq_);
  out->insert(out->end(), body.begin(), body.end());
}

Status EntrySequencedFile::RestoreFrom(Slice* in) {
  ENCOMPASS_RETURN_IF_ERROR(RestoreSlots(in, &entries_));
  if (!GetVarint64(in, &next_seq_)) return DecodeError("entry next_seq");
  RebuildIndices();
  return Status::Ok();
}

std::unique_ptr<StructuredFile> MakeFile(FileOrganization org, std::string name,
                                         FileOptions options) {
  switch (org) {
    case FileOrganization::kKeySequenced:
      return std::make_unique<KeySequencedFile>(std::move(name), std::move(options));
    case FileOrganization::kRelative:
      return std::make_unique<RelativeFile>(std::move(name), std::move(options));
    case FileOrganization::kEntrySequenced:
      return std::make_unique<EntrySequencedFile>(std::move(name),
                                                  std::move(options));
  }
  return nullptr;
}

}  // namespace encompass::storage
