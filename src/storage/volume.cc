#include "storage/volume.h"

#include <algorithm>

#include "common/coding.h"

namespace encompass::storage {

Volume::Volume(std::string name, VolumeConfig config)
    : name_(std::move(name)), config_(config) {}

void Volume::BindStats(sim::Stats* stats) {
  stats_ = stats;
  if (stats_ == nullptr) return;
  const std::string prefix = "storage." + name_ + ".";
  m_cache_hits_ = stats_->RegisterCounter(prefix + "cache_hits");
  m_cache_misses_ = stats_->RegisterCounter(prefix + "cache_misses");
  m_physical_reads_ = stats_->RegisterCounter(prefix + "physical_reads");
  m_physical_writes_ = stats_->RegisterCounter(prefix + "physical_writes");
}

Status Volume::CreateFile(const std::string& fname, FileOrganization org,
                          FileOptions options) {
  if (files_.count(fname)) return Status::AlreadyExists("file exists: " + fname);
  files_[fname] = MakeFile(org, fname, std::move(options));
  return Status::Ok();
}

StructuredFile* Volume::Find(const std::string& fname) const {
  auto it = files_.find(fname);
  return it == files_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

uint32_t Volume::CacheFileId(const std::string& fname) {
  auto it = cache_file_ids_.find(fname);
  if (it != cache_file_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(cache_file_ids_.size());
  cache_file_ids_.emplace(fname, id);
  return id;
}

bool Volume::CacheHit(uint32_t file_id, const Slice& key) {
  auto it = cache_.find(CacheRef{file_id, key});
  if (it == cache_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return true;
}

void Volume::CacheTouch(uint32_t file_id, const Slice& key) {
  auto it = cache_.find(CacheRef{file_id, key});
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  // The index key views the bytes owned by the node it points at.
  if (cache_.size() < config_.cache_capacity) {
    lru_.push_front(CacheEntry{file_id, key.ToBytes()});
    cache_.emplace(CacheRef{file_id, Slice(lru_.front().key)}, lru_.begin());
    return;
  }
  if (lru_.empty()) return;  // capacity 0: nothing is ever resident
  // Full: the LRU victim becomes the new line in place. Its list node, key
  // buffer and index node are all reused, so a miss allocates nothing.
  auto victim = std::prev(lru_.end());
  auto index_node = cache_.extract(CacheRef{victim->file_id, Slice(victim->key)});
  victim->file_id = file_id;
  victim->key.assign(key.data(), key.data() + key.size());
  lru_.splice(lru_.begin(), lru_, victim);
  index_node.key() = CacheRef{file_id, Slice(victim->key)};
  index_node.mapped() = victim;
  cache_.insert(std::move(index_node));
}

void Volume::CacheErase(uint32_t file_id, const Slice& key) {
  auto it = cache_.find(CacheRef{file_id, key});
  if (it == cache_.end()) return;
  lru_.erase(it->second);
  cache_.erase(it);
}

void Volume::CacheClear() {
  cache_.clear();
  lru_.clear();
}

// ---------------------------------------------------------------------------
// Record operations
// ---------------------------------------------------------------------------

OpResult Volume::Mutate(const std::string& fname, MutationOp op, const Slice& key,
                        const Slice& record) {
  OpResult out;
  if (!Usable()) {
    out.status = Status::IoError("volume " + name_ + ": all drives down");
    return out;
  }
  StructuredFile* file = Find(fname);
  if (file == nullptr) {
    out.status = Status::NotFound("no file: " + fname);
    return out;
  }
  const uint32_t fid = CacheFileId(fname);

  // Capture the before-image (needed for the audit trail).
  if (op != MutationOp::kInsert && !key.empty()) {
    auto prior = file->Read(key);
    if (prior.ok()) {
      out.before = std::move(*prior);
      out.existed = true;
    }
  }

  SaveImage(fid, *file);
  switch (op) {
    case MutationOp::kInsert: {
      Bytes assigned;
      out.status = file->Insert(key, record, &assigned);
      if (out.status.ok()) {
        out.key = std::move(assigned);
        CacheTouch(fid, Slice(out.key));
      }
      break;
    }
    case MutationOp::kUpdate:
      out.status = file->Update(key, record);
      if (out.status.ok()) {
        out.key = key.ToBytes();
        CacheTouch(fid, key);
      }
      break;
    case MutationOp::kDelete:
      out.status = file->Delete(key);
      if (out.status.ok()) {
        out.key = key.ToBytes();
        CacheErase(fid, key);
      }
      break;
  }

  if (out.status.ok()) {
    // Write-back: the update lives in cache/memory only until Flush. This is
    // the paper's "audit records need not be written to disc prior to
    // updating the data base" — nothing is forced here.
    NoteWrite();
  }
  return out;
}

OpResult Volume::ApplyUndo(const std::string& fname, MutationOp original_op,
                           const Slice& key, const Slice& before) {
  OpResult out;
  if (!Usable()) {
    out.status = Status::IoError("volume " + name_ + ": all drives down");
    return out;
  }
  StructuredFile* file = Find(fname);
  if (file == nullptr) {
    out.status = Status::NotFound("no file: " + fname);
    return out;
  }
  const uint32_t fid = CacheFileId(fname);
  auto current = file->Read(key);

  switch (original_op) {
    case MutationOp::kInsert:
      if (!current.ok()) {
        out.status = Status::Ok();  // already compensated
        return out;
      }
      SaveImage(fid, *file);
      out.status = PhysicalRemove(file, key);
      if (out.status.ok()) CacheErase(fid, key);
      break;
    case MutationOp::kUpdate:
      if (!current.ok()) {
        out.status = current.status();
        return out;
      }
      if (Slice(*current) == before) {
        out.status = Status::Ok();  // already compensated
        return out;
      }
      SaveImage(fid, *file);
      out.status = file->Update(key, before);
      if (out.status.ok()) CacheTouch(fid, key);
      break;
    case MutationOp::kDelete:
      if (current.ok()) {
        out.status = Status::Ok();  // already compensated
        return out;
      }
      SaveImage(fid, *file);
      out.status = file->Insert(key, before, nullptr);
      if (out.status.ok()) CacheTouch(fid, key);
      break;
  }
  if (out.status.ok()) NoteWrite();
  return out;
}

OpResult Volume::ReadRecord(const std::string& fname, const Slice& key) {
  OpResult out;
  if (!Usable()) {
    out.status = Status::IoError("volume " + name_ + ": all drives down");
    return out;
  }
  StructuredFile* file = Find(fname);
  if (file == nullptr) {
    out.status = Status::NotFound("no file: " + fname);
    return out;
  }
  auto r = file->Read(key);
  out.status = r.ok() ? Status::Ok() : r.status();
  if (r.ok()) {
    out.value = std::move(*r);
    out.key = key.ToBytes();
    const uint32_t fid = CacheFileId(fname);
    if (CacheHit(fid, key)) {
      ++cache_hits_;
      if (stats_ != nullptr) stats_->Incr(m_cache_hits_);
    } else {
      ++cache_misses_;
      if (stats_ != nullptr) stats_->Incr(m_cache_misses_);
      out.disc_ios = file->access_depth();
      physical_reads_ += out.disc_ios;
      if (stats_ != nullptr) stats_->Incr(m_physical_reads_, out.disc_ios);
      CacheTouch(fid, key);
    }
  }
  return out;
}

OpResult Volume::SeekRecord(const std::string& fname, const Slice& key,
                            bool inclusive) {
  OpResult out;
  if (!Usable()) {
    out.status = Status::IoError("volume " + name_ + ": all drives down");
    return out;
  }
  StructuredFile* file = Find(fname);
  if (file == nullptr) {
    out.status = Status::NotFound("no file: " + fname);
    return out;
  }
  auto r = file->Seek(key, inclusive);
  out.status = r.ok() ? Status::Ok() : r.status();
  if (r.ok()) {
    out.key = std::move(r->key);
    out.value = std::move(r->value);
    const uint32_t fid = CacheFileId(fname);
    if (CacheHit(fid, Slice(out.key))) {
      ++cache_hits_;
      if (stats_ != nullptr) stats_->Incr(m_cache_hits_);
    } else {
      ++cache_misses_;
      if (stats_ != nullptr) stats_->Incr(m_cache_misses_);
      out.disc_ios = file->access_depth();
      physical_reads_ += out.disc_ios;
      if (stats_ != nullptr) stats_->Incr(m_physical_reads_, out.disc_ios);
      CacheTouch(fid, Slice(out.key));
    }
  }
  return out;
}

OpResult Volume::ReadAlternate(const std::string& fname, const std::string& field,
                               const std::string& value) {
  OpResult out;
  if (!Usable()) {
    out.status = Status::IoError("volume " + name_ + ": all drives down");
    return out;
  }
  StructuredFile* file = Find(fname);
  if (file == nullptr) {
    out.status = Status::NotFound("no file: " + fname);
    return out;
  }
  auto r = file->LookupAlternate(field, value);
  out.status = r.ok() ? Status::Ok() : r.status();
  if (r.ok()) {
    for (const auto& pk : *r) PutLengthPrefixed(&out.value, Slice(pk));
    out.disc_ios = 1;  // one index probe
    ++physical_reads_;
    if (stats_ != nullptr) stats_->Incr(m_physical_reads_);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Durability boundary
// ---------------------------------------------------------------------------

void Volume::SaveImage(uint32_t file_id, const StructuredFile& file) {
  if (file_id >= images_.size()) images_.resize(file_id + 1);
  Bytes& image = images_[file_id];
  if (!image.empty()) return;  // already dirty: the image predates the flush
  file.ArchiveTo(&image);
  image.shrink_to_fit();
}

void Volume::NoteWrite() {
  ++volatile_writes_;
  // A drive that is down misses this write and becomes stale.
  for (int d = 0; d < drive_count(); ++d) {
    if (!drive_up_[d]) drive_stale_[d] = true;
  }
}

int Volume::Flush() {
  int writes = static_cast<int>(volatile_writes_) * UpDrives();
  if (stats_ != nullptr) stats_->Incr(m_physical_writes_, writes);
  images_.clear();
  volatile_writes_ = 0;
  return writes;
}

size_t Volume::durable_bytes() const {
  size_t total = 0;
  for (const Bytes& image : images_) total += image.capacity();
  return total;
}

Status Volume::PhysicalRemove(StructuredFile* file, const Slice& key) {
  if (file->organization() == FileOrganization::kEntrySequenced) {
    return static_cast<EntrySequencedFile*>(file)->RemoveEntry(key);
  }
  return file->Delete(key);
}

void Volume::DropVolatile() {
  for (const auto& [fname, id] : cache_file_ids_) {
    if (id >= images_.size() || images_[id].empty()) continue;  // clean
    Slice image(images_[id]);
    StructuredFile* file = Find(fname);
    if (file != nullptr) file->RestoreFrom(&image);
  }
  images_.clear();
  volatile_writes_ = 0;
  // Main memory is gone with the node: the cache is cold. Interned file ids
  // survive — they name files, not contents.
  CacheClear();
}

// ---------------------------------------------------------------------------
// Mirrored drives
// ---------------------------------------------------------------------------

void Volume::FailDrive(int drive) {
  if (drive < 0 || drive >= drive_count()) return;
  drive_up_[drive] = false;
}

Result<size_t> Volume::ReviveDrive(int drive) {
  if (drive < 0 || drive >= drive_count()) {
    return Status::InvalidArgument("no such drive");
  }
  if (drive_up_[drive]) return size_t{0};
  if (!Usable()) return Status::IoError("no survivor to copy from");
  size_t copied = 0;
  if (drive_stale_[drive]) {
    for (const auto& [n, f] : files_) {
      (void)n;
      copied += f->record_count();
    }
    if (stats_ != nullptr) {
      stats_->Incr(m_physical_writes_, static_cast<int64_t>(copied));
    }
    drive_stale_[drive] = false;
  }
  drive_up_[drive] = true;
  return copied;
}

bool Volume::Usable() const { return UpDrives() > 0; }

int Volume::UpDrives() const {
  int n = 0;
  for (int d = 0; d < drive_count(); ++d) n += drive_up_[d] ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Drive schedule
// ---------------------------------------------------------------------------

DriveSchedule Volume::ScheduleRead(SimTime now, SimDuration service) {
  // Read-either: place the transfer on the up drive that frees first
  // (ties -> lower index), so back-to-back reads land on alternate drives
  // and overlap in time.
  int best = -1;
  SimTime best_start = 0;
  for (int d = 0; d < drive_count(); ++d) {
    if (!drive_up_[d]) continue;
    SimTime start = std::max(now, drive_busy_until_[d]);
    if (best < 0 || start < best_start) {
      best = d;
      best_start = start;
    }
  }
  DriveSchedule s;
  if (best < 0) {  // no drive up; callers guard with Usable()
    s.complete = now + service;
    return s;
  }
  auto& inflight = drive_inflight_[best];
  while (!inflight.empty() && inflight.front() <= now) inflight.pop_front();
  s.drive = best;
  s.queue_depth = static_cast<int>(inflight.size());
  s.complete = best_start + service;
  drive_busy_until_[best] = s.complete;
  ++drive_reads_[best];
  inflight.push_back(s.complete);
  return s;
}

int64_t Volume::drive_reads(int drive) const {
  if (drive < 0 || drive >= drive_count()) return 0;
  return drive_reads_[drive];
}

// ---------------------------------------------------------------------------
// Archive
// ---------------------------------------------------------------------------

Bytes Volume::Archive() const {
  Bytes out;
  PutLengthPrefixed(&out, Slice(name_));
  PutVarint64(&out, files_.size());
  for (const auto& [fname, file] : files_) {
    PutLengthPrefixed(&out, Slice(fname));
    PutFixed8(&out, static_cast<uint8_t>(file->organization()));
    PutFixed8(&out, file->audited() ? 1 : 0);
    PutVarint32(&out, static_cast<uint32_t>(file->schema().alternate_keys.size()));
    for (const auto& f : file->schema().alternate_keys) {
      PutLengthPrefixed(&out, Slice(f));
    }
    file->ArchiveTo(&out);
  }
  return out;
}

Status Volume::RestoreFromArchive(const Slice& archive) {
  Slice in = archive;
  std::string archived_name;
  if (!GetLengthPrefixedString(&in, &archived_name)) {
    return DecodeError("volume name");
  }
  uint64_t nfiles;
  if (!GetVarint64(&in, &nfiles)) return DecodeError("file count");

  std::map<std::string, std::unique_ptr<StructuredFile>> restored;
  for (uint64_t i = 0; i < nfiles; ++i) {
    std::string fname;
    uint8_t org_byte, audited;
    if (!GetLengthPrefixedString(&in, &fname) || !GetFixed8(&in, &org_byte) ||
        !GetFixed8(&in, &audited)) {
      return DecodeError("file header");
    }
    uint32_t nalt;
    if (!GetVarint32(&in, &nalt)) return DecodeError("schema");
    FileOptions options;
    options.audited = audited != 0;
    for (uint32_t k = 0; k < nalt; ++k) {
      std::string field;
      if (!GetLengthPrefixedString(&in, &field)) return DecodeError("alt key");
      options.schema.alternate_keys.push_back(field);
    }
    auto file = MakeFile(static_cast<FileOrganization>(org_byte), fname,
                         std::move(options));
    if (file == nullptr) return Status::Corruption("bad file organization");
    ENCOMPASS_RETURN_IF_ERROR(file->RestoreFrom(&in));
    restored[fname] = std::move(file);
  }
  files_ = std::move(restored);
  images_.clear();
  volatile_writes_ = 0;
  CacheClear();
  return Status::Ok();
}

}  // namespace encompass::storage
