#include "storage/partition.h"

namespace encompass::storage {

Status PartitionMap::Validate() const {
  if (entries_.empty()) return Status::InvalidArgument("no partitions");
  for (size_t i = 0; i + 1 < entries_.size(); ++i) {
    if (entries_[i].upper_bound.empty()) {
      return Status::InvalidArgument("infinite bound before last partition");
    }
    if (i > 0 && !(Slice(entries_[i - 1].upper_bound) <
                   Slice(entries_[i].upper_bound))) {
      return Status::InvalidArgument("partition bounds not ascending");
    }
  }
  if (!entries_.back().upper_bound.empty()) {
    return Status::InvalidArgument("last partition must have infinite bound");
  }
  return Status::Ok();
}

size_t PartitionMap::LocateIndex(const Slice& key) const {
  for (size_t i = 0; i + 1 < entries_.size(); ++i) {
    if (key.Compare(Slice(entries_[i].upper_bound)) < 0) return i;
  }
  return entries_.size() - 1;
}

const PartitionEntry& PartitionMap::Locate(const Slice& key) const {
  return entries_[LocateIndex(key)];
}

Status Catalog::DefineFile(FileDefinition def) {
  ENCOMPASS_RETURN_IF_ERROR(def.partitions.Validate());
  if (files_.count(def.name)) {
    return Status::AlreadyExists("file defined: " + def.name);
  }
  files_[def.name] = std::move(def);
  return Status::Ok();
}

const FileDefinition* Catalog::Find(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

}  // namespace encompass::storage
