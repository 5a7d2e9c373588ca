#include "audit/audit_trail.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace encompass::audit {

AuditTrail::AuditTrail(std::string name, AuditTrailConfig config)
    : name_(std::move(name)), config_(config) {
  files_.emplace_back();
}

AuditRecord AuditTrail::AuditFile::Decode(size_t i) const {
  Slice in = Record(i);
  auto rec = AuditRecord::Decode(&in);
  assert(rec.ok() && "audit trail holds only validated records");
  rec->lsn = first_lsn + i;
  return std::move(*rec);
}

void AuditTrail::AuditFile::Truncate(size_t n) {
  ends.resize(n);
  segment.resize(n == 0 ? 0 : ends.back());
}

bool AuditTrail::AuditFile::HoldsLive(
    const std::function<bool(const Transid&)>& live) const {
  // Every encoding starts with the fixed64 packed transid. A transaction's
  // records often sit side by side: ask once per run of equal transids.
  uint64_t asked = 0;
  for (size_t i = 0; i < size(); ++i) {
    Slice in = Record(i);
    uint64_t packed = 0;
    GetFixed64(&in, &packed);
    if (packed == asked) continue;
    asked = packed;
    if (live(Transid::Unpack(packed))) return true;
  }
  return false;
}

uint64_t AuditTrail::AppendEncoded(const Slice& encoded) {
  const uint64_t lsn = next_lsn_++;
  AuditFile* file = &files_.back();
  if (file->size() >= config_.records_per_file ||
      (!file->empty() &&
       file->segment.size() + encoded.size() > UINT32_MAX)) {
    // Seal the full file: it holds exactly its records from now on.
    file->segment.shrink_to_fit();
    file->ends.shrink_to_fit();
    file = &files_.emplace_back();
  }
  if (file->empty()) file->first_lsn = lsn;
  file->segment.insert(file->segment.end(), encoded.data(),
                       encoded.data() + encoded.size());
  file->ends.push_back(static_cast<uint32_t>(file->segment.size()));
  return lsn;
}

size_t AuditTrail::Force() {
  uint64_t new_durable = next_lsn_ - 1;
  size_t forced = static_cast<size_t>(new_durable - durable_lsn_);
  durable_lsn_ = new_durable;
  return forced;
}

void AuditTrail::DropVolatile() {
  // Files that start past the durable boundary go whole (one file always
  // stays); the last survivor loses its volatile suffix.
  while (files_.size() > 1 && files_.back().first_lsn > durable_lsn_) {
    files_.pop_back();
  }
  AuditFile& file = files_.back();
  if (!file.empty() && file.last_lsn() > durable_lsn_) {
    file.Truncate(durable_lsn_ < file.first_lsn
                      ? 0
                      : static_cast<size_t>(durable_lsn_ - file.first_lsn + 1));
  }
  next_lsn_ = durable_lsn_ + 1;
}

std::vector<AuditRecord> AuditTrail::RecordsForTransaction(
    const Transid& transid) const {
  // Every encoding starts with the fixed64 packed transid: match on those
  // eight bytes and decode only the matches.
  Bytes header;
  PutFixed64(&header, transid.Pack());
  std::vector<AuditRecord> out;
  for (const auto& file : files_) {
    for (size_t i = 0; i < file.size(); ++i) {
      if (file.Record(i).StartsWith(Slice(header))) out.push_back(file.Decode(i));
    }
  }
  return out;
}

std::vector<AuditRecord> AuditTrail::DurableRecordsAfter(uint64_t after_lsn) const {
  std::vector<AuditRecord> out;
  for (const auto& file : files_) {
    if (file.empty() || file.last_lsn() <= after_lsn ||
        file.first_lsn > durable_lsn_) {
      continue;
    }
    const uint64_t first = std::max(after_lsn + 1, file.first_lsn);
    const uint64_t last = std::min(durable_lsn_, file.last_lsn());
    for (uint64_t lsn = first; lsn <= last; ++lsn) {
      out.push_back(file.Decode(static_cast<size_t>(lsn - file.first_lsn)));
    }
  }
  return out;
}

size_t AuditTrail::PurgeFinished(const PurgeLimits& limits) {
  size_t purged = 0;
  while (files_.size() > 1) {
    const AuditFile& file = files_.front();
    if (!file.empty() &&
        (file.last_lsn() > limits.up_to_lsn ||
         file.last_lsn() > durable_lsn_ || file.HoldsLive(limits.live))) {
      break;
    }
    ++first_file_number_;
    files_.pop_front();
    ++purged;
  }
  return purged;
}

size_t AuditTrail::record_count() const {
  size_t n = 0;
  for (const auto& f : files_) n += f.size();
  return n;
}

size_t AuditTrail::bytes() const {
  size_t n = 0;
  for (const auto& f : files_) {
    n += f.segment.capacity() + f.ends.capacity() * sizeof(uint32_t);
  }
  return n;
}

void MonitorAuditTrail::AppendForced(const CompletionRecord& record) {
  ++appended_;
  index_.emplace(record.transid.Pack(), record.completion);
}

int MonitorAuditTrail::Lookup(const Transid& transid) const {
  auto it = index_.find(transid.Pack());
  if (it == index_.end()) return -1;
  return it->second == Completion::kCommitted ? 1 : 0;
}

}  // namespace encompass::audit
