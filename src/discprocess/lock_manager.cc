#include "discprocess/lock_manager.h"

#include <algorithm>
#include <cassert>

namespace encompass::discprocess {

LockManager::FileTable& LockManager::InternFile(const std::string& file) {
  auto it = file_ids_.find(file);
  if (it != file_ids_.end()) return files_[it->second];
  uint32_t id = static_cast<uint32_t>(files_.size());
  file_ids_.emplace(file, id);
  files_.emplace_back();
  files_.back().name = file;
  return files_.back();
}

LockManager::FileTable* LockManager::FindFile(const std::string& file) {
  auto it = file_ids_.find(file);
  return it == file_ids_.end() ? nullptr : &files_[it->second];
}

const LockManager::FileTable* LockManager::FindFile(
    const std::string& file) const {
  auto it = file_ids_.find(file);
  return it == file_ids_.end() ? nullptr : &files_[it->second];
}

size_t LockManager::RecordsHeldByOther(const FileTable& ft,
                                       const Transid& owner) const {
  auto it = ft.held_by.find(owner.Pack());
  size_t own = it == ft.held_by.end() ? 0 : it->second;
  assert(own <= ft.held_records);
  return ft.held_records - own;
}

void LockManager::AddWait(const Transid& owner, const LockKey& key) {
  waits_[owner.Pack()].push_back(key);
  ++waiter_count_;
}

void LockManager::RemoveWait(const Transid& owner, const LockKey& key) {
  auto it = waits_.find(owner.Pack());
  if (it == waits_.end()) return;
  auto& keys = it->second;
  for (auto kit = keys.begin(); kit != keys.end(); ++kit) {
    if (*kit == key) {
      keys.erase(kit);
      --waiter_count_;
      break;
    }
  }
  if (keys.empty()) waits_.erase(it);
}

LockManager::AcquireResult LockManager::Acquire(const Transid& owner,
                                                const LockKey& key) {
  assert(owner.valid());
  FileTable& ft = InternFile(key.file);

  // Covered by the owner's file lock?
  if (!key.file_level() && ft.file_unit.holder == owner) {
    return AcquireResult::kGranted;
  }

  Unit& unit = key.file_level() ? ft.file_unit : ft.records[key.record];
  if (unit.holder == owner) return AcquireResult::kGranted;

  bool grantable;
  if (key.file_level()) {
    grantable = !unit.holder.valid() && unit.waiters.empty() &&
                RecordsHeldByOther(ft, owner) == 0;
  } else {
    grantable = !unit.holder.valid() && unit.waiters.empty() &&
                !(ft.file_unit.holder.valid() &&
                  !(ft.file_unit.holder == owner));
  }

  if (grantable) {
    unit.holder = owner;
    ++held_count_;
    if (!key.file_level()) {
      ++ft.held_records;
      ++ft.held_by[owner.Pack()];
    }
    owned_[owner].insert(key);
    return AcquireResult::kGranted;
  }
  // FIFO wait. The same owner never queues twice on one unit.
  for (const auto& w : unit.waiters) {
    if (w == owner) return AcquireResult::kQueued;
  }
  unit.waiters.push_back(owner);
  if (!key.file_level()) ft.waiting_records.insert(key.record);
  AddWait(owner, key);
  return AcquireResult::kQueued;
}

void LockManager::ForceGrant(const Transid& owner, const LockKey& key) {
  FileTable& ft = InternFile(key.file);
  Unit& unit = key.file_level() ? ft.file_unit : ft.records[key.record];
  if (unit.holder == owner) {
    owned_[owner].insert(key);
    return;
  }
  if (unit.holder.valid()) {
    // Reassignment (backup mirroring an out-of-order checkpoint): shift the
    // per-owner accounting; the old holder's owned_ entry goes stale, which
    // ReleaseAll tolerates by checking the live holder.
    if (!key.file_level()) {
      auto it = ft.held_by.find(unit.holder.Pack());
      if (it != ft.held_by.end() && --it->second == 0) ft.held_by.erase(it);
      ++ft.held_by[owner.Pack()];
    }
  } else {
    ++held_count_;
    if (!key.file_level()) {
      ++ft.held_records;
      ++ft.held_by[owner.Pack()];
    }
  }
  unit.holder = owner;
  owned_[owner].insert(key);
}

std::vector<LockGrant> LockManager::ReleaseAll(const Transid& owner) {
  std::vector<LockGrant> grants;
  auto oit = owned_.find(owner);
  // Files needing promotion / cleanup, in name order (owned_ iterates keys
  // sorted by (file, record), so insertion order is already by file name).
  std::vector<FileTable*> touched;
  std::vector<std::pair<FileTable*, Bytes>> released_records;

  if (oit != owned_.end()) {
    for (const auto& key : oit->second) {
      FileTable* ft = FindFile(key.file);
      if (ft == nullptr) continue;
      Unit* unit;
      if (key.file_level()) {
        unit = &ft->file_unit;
      } else {
        auto rit = ft->records.find(key.record);
        unit = rit == ft->records.end() ? nullptr : &rit->second;
      }
      if (unit != nullptr && unit->holder == owner) {
        unit->holder = Transid{};
        --held_count_;
        if (!key.file_level()) {
          --ft->held_records;
          auto hit = ft->held_by.find(owner.Pack());
          if (hit != ft->held_by.end() && --hit->second == 0) {
            ft->held_by.erase(hit);
          }
          released_records.emplace_back(ft, key.record);
        }
        if (touched.empty() || touched.back() != ft) touched.push_back(ft);
      }
    }
    owned_.erase(oit);
  }
  // Also drop this owner from every wait queue it is parked in (an aborting
  // transaction may be waiting somewhere).
  auto wit = waits_.find(owner.Pack());
  if (wit != waits_.end()) {
    for (const auto& key : wit->second) {
      FileTable* ft = FindFile(key.file);
      if (ft == nullptr) continue;
      Unit& unit = key.file_level() ? ft->file_unit
                                    : ft->records[key.record];
      for (auto qit = unit.waiters.begin(); qit != unit.waiters.end();) {
        if (*qit == owner) qit = unit.waiters.erase(qit);
        else ++qit;
      }
      if (!key.file_level() && unit.waiters.empty()) {
        ft->waiting_records.erase(key.record);
        if (!unit.holder.valid()) ft->records.erase(key.record);
      }
    }
    waiter_count_ -= wit->second.size();
    waits_.erase(wit);
  }

  for (FileTable* ft : touched) {
    PromoteWaiters(*ft, &grants);
  }
  // Drop record units the release left free and unwanted, keeping the hash
  // tables tight (the old map-based table erased all empty units here).
  for (auto& [ft, record] : released_records) {
    auto rit = ft->records.find(record);
    if (rit != ft->records.end() && !rit->second.holder.valid() &&
        rit->second.waiters.empty()) {
      ft->records.erase(rit);
    }
  }
  return grants;
}

void LockManager::PromoteWaiters(FileTable& ft,
                                 std::vector<LockGrant>* grants) {
  // Consider the file-level unit plus every record unit with waiters, in
  // byte order, and keep promoting until a pass grants nothing (a file-lock
  // grant can block later record grants and vice versa). This matches the
  // sorted full scan of the original implementation, so the grant sequence
  // is byte-identical; it merely skips units with nobody waiting.
  bool progress = true;
  while (progress) {
    progress = false;
    if (!ft.file_unit.holder.valid() && !ft.file_unit.waiters.empty()) {
      const Transid candidate = ft.file_unit.waiters.front();
      if (RecordsHeldByOther(ft, candidate) == 0) {
        ft.file_unit.holder = candidate;
        ++held_count_;
        LockKey key{ft.name, {}};
        owned_[candidate].insert(key);
        grants->push_back(LockGrant{candidate, key});
        ft.file_unit.waiters.pop_front();
        RemoveWait(candidate, key);
        progress = true;
      }
    }
    // Snapshot: grants during the pass may empty queues and mutate the set.
    std::vector<const Bytes*> waiting;
    waiting.reserve(ft.waiting_records.size());
    for (const Bytes& r : ft.waiting_records) waiting.push_back(&r);
    for (const Bytes* record : waiting) {
      auto rit = ft.records.find(*record);
      if (rit == ft.records.end()) continue;
      Unit& unit = rit->second;
      if (unit.holder.valid() || unit.waiters.empty()) continue;
      const Transid candidate = unit.waiters.front();
      if (ft.file_unit.holder.valid() && !(ft.file_unit.holder == candidate)) {
        continue;
      }
      unit.holder = candidate;
      ++held_count_;
      ++ft.held_records;
      ++ft.held_by[candidate.Pack()];
      LockKey key{ft.name, *record};
      owned_[candidate].insert(key);
      grants->push_back(LockGrant{candidate, key});
      unit.waiters.pop_front();
      RemoveWait(candidate, key);
      if (unit.waiters.empty()) ft.waiting_records.erase(*record);
      progress = true;
    }
  }
}

bool LockManager::CancelWait(const Transid& owner, const LockKey& key) {
  FileTable* ft = FindFile(key.file);
  if (ft == nullptr) return false;
  Unit* unit;
  if (key.file_level()) {
    unit = &ft->file_unit;
  } else {
    auto rit = ft->records.find(key.record);
    if (rit == ft->records.end()) return false;
    unit = &rit->second;
  }
  for (auto qit = unit->waiters.begin(); qit != unit->waiters.end(); ++qit) {
    if (*qit == owner) {
      unit->waiters.erase(qit);
      RemoveWait(owner, key);
      if (!key.file_level() && unit->waiters.empty()) {
        ft->waiting_records.erase(key.record);
        if (!unit->holder.valid()) ft->records.erase(key.record);
      }
      return true;
    }
  }
  return false;
}

bool LockManager::Holds(const Transid& owner, const LockKey& key) const {
  const FileTable* ft = FindFile(key.file);
  if (ft == nullptr) return false;
  if (ft->file_unit.holder == owner) return true;
  if (key.file_level()) return false;
  auto rit = ft->records.find(key.record);
  return rit != ft->records.end() && rit->second.holder == owner;
}

std::vector<LockGrant> LockManager::AllHeld() const {
  // Deterministic (file, record) order, matching the original sorted table.
  std::vector<const FileTable*> tables;
  tables.reserve(files_.size());
  for (const auto& ft : files_) tables.push_back(&ft);
  std::sort(tables.begin(), tables.end(),
            [](const FileTable* a, const FileTable* b) {
              return a->name < b->name;
            });
  std::vector<LockGrant> out;
  for (const FileTable* ft : tables) {
    if (ft->file_unit.holder.valid()) {
      out.push_back(LockGrant{ft->file_unit.holder, LockKey{ft->name, {}}});
    }
    std::vector<const Bytes*> keys;
    keys.reserve(ft->records.size());
    for (const auto& [record, unit] : ft->records) {
      if (unit.holder.valid()) keys.push_back(&record);
    }
    std::sort(keys.begin(), keys.end(), [](const Bytes* a, const Bytes* b) {
      return Slice(*a) < Slice(*b);
    });
    for (const Bytes* record : keys) {
      out.push_back(
          LockGrant{ft->records.at(*record).holder, LockKey{ft->name, *record}});
    }
  }
  return out;
}

std::vector<Transid> LockManager::Holders() const {
  std::vector<Transid> out;
  for (const auto& [owner, keys] : owned_) {
    (void)keys;
    out.push_back(owner);
  }
  return out;
}

}  // namespace encompass::discprocess
