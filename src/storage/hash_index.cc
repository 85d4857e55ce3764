#include "storage/hash_index.h"

#include <algorithm>
#include <mutex>

namespace youtopia {

void HashIndex::Insert(const Value& key, RowId rid) {
  WriterMutexLock lock(latch_);
  postings_[key].push_back(rid);
}

void HashIndex::Erase(const Value& key, RowId rid) {
  WriterMutexLock lock(latch_);
  auto it = postings_.find(key);
  if (it == postings_.end()) return;
  auto& rids = it->second;
  rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
  if (rids.empty()) postings_.erase(it);
}

std::vector<RowId> HashIndex::Lookup(const Value& key) const {
  ReaderMutexLock lock(latch_);
  auto it = postings_.find(key);
  if (it == postings_.end()) return {};
  return it->second;
}

size_t HashIndex::Count(const Value& key) const {
  ReaderMutexLock lock(latch_);
  auto it = postings_.find(key);
  return it == postings_.end() ? 0 : it->second.size();
}

size_t HashIndex::size() const {
  ReaderMutexLock lock(latch_);
  size_t n = 0;
  for (const auto& [key, rids] : postings_) n += rids.size();
  return n;
}

}  // namespace youtopia
