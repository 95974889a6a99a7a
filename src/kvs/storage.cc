#include "kvs/storage.h"

namespace pbs {
namespace kvs {

bool ReplicaStorage::Put(Key key, const VersionedValue& incoming) {
  auto [it, inserted] = data_.try_emplace(key, incoming);
  if (inserted) {
    ++writes_applied_;
    return true;
  }
  if (incoming.NewerThan(it->second)) {
    it->second = incoming;
    ++writes_applied_;
    return true;
  }
  return false;
}

std::optional<VersionedValue> ReplicaStorage::Get(Key key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

const VersionedValue* ReplicaStorage::Find(Key key) const {
  const auto it = data_.find(key);
  return it == data_.end() ? nullptr : &it->second;
}

void ReplicaStorage::ForEach(
    const std::function<void(Key, const VersionedValue&)>& fn) const {
  for (const auto& [key, value] : data_) fn(key, value);
}

}  // namespace kvs
}  // namespace pbs
