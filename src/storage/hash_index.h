#ifndef YOUTOPIA_STORAGE_HASH_INDEX_H_
#define YOUTOPIA_STORAGE_HASH_INDEX_H_

#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "storage/heap_table.h"
#include "types/value.h"

namespace youtopia {

/// Secondary hash index over one column of a heap table: value → row ids.
/// Non-unique (flights share destinations, reservations share flight
/// numbers). Maintained by the StorageEngine on every write.
class HashIndex {
 public:
  explicit HashIndex(size_t column_index) : column_index_(column_index) {}

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  size_t column_index() const { return column_index_; }

  void Insert(const Value& key, RowId rid);

  /// Removes one (key, rid) posting; no-op if absent.
  void Erase(const Value& key, RowId rid);

  /// All row ids for `key` (unordered).
  std::vector<RowId> Lookup(const Value& key) const;

  /// Length of `key`'s posting list (the access path's selectivity
  /// estimate; no copy).
  size_t Count(const Value& key) const;

  /// Number of postings (for tests/stats).
  size_t size() const;

 private:
  size_t column_index_;
  /// Maintained under the engine's kStorageTables latch (or alone);
  /// takes nothing itself.
  mutable SharedMutex latch_{LockRank::kHashIndex, "hash_index"};
  std::unordered_map<Value, std::vector<RowId>, ValueHash> postings_
      GUARDED_BY(latch_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_HASH_INDEX_H_
