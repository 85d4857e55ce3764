#include "storage/storage_engine.h"

#include <algorithm>

#include "common/string_util.h"

namespace youtopia {

namespace {

/// For an auto-commit writer (`txn == 0`): issues a commit timestamp
/// and reads the GC low-water mark on construction, and retires the
/// timestamp (advancing the watermark) on scope exit — error paths
/// included, so a failed write can never wedge the watermark below the
/// clock. Transactional writers stay pending until CommitTxn, so for
/// them it does nothing. Constructed before the tables latch is taken
/// and destroyed after it drops: kMvccClock is never held together with
/// kStorageTables.
class ScopedAutoCommit {
 public:
  ScopedAutoCommit(MvccController* mvcc, TxnId txn)
      : mvcc_(txn == 0 ? mvcc : nullptr),
        txn_(txn),
        ts_(mvcc_ == nullptr ? 0 : mvcc_->BeginCommit()),
        low_water_(mvcc_ == nullptr ? 0 : mvcc_->LowWater()) {}
  ~ScopedAutoCommit() {
    if (mvcc_ != nullptr) mvcc_->EndCommit(ts_);
  }
  ScopedAutoCommit(const ScopedAutoCommit&) = delete;
  ScopedAutoCommit& operator=(const ScopedAutoCommit&) = delete;

  /// How the write is stamped: committed now, or pending under `txn`.
  VersionStamp stamp() const {
    return txn_ != 0 ? VersionStamp::Pending(txn_)
                     : VersionStamp::Committed(ts_);
  }
  Ts low_water() const { return low_water_; }

 private:
  MvccController* mvcc_;
  TxnId txn_;
  Ts ts_;
  Ts low_water_;
};

bool ContainsKey(const std::vector<Tuple>& tuples, size_t col,
                 const Value& key) {
  for (const Tuple& t : tuples) {
    if (col < t.size() && t.at(col) == key) return true;
  }
  return false;
}

}  // namespace

Status StorageEngine::CreateTable(const std::string& name, Schema schema) {
  auto id = catalog_.CreateTable(name, schema);
  if (!id.ok()) return id.status();
  WriterMutexLock lock(tables_mu_);
  TableData data;
  data.heap =
      std::make_unique<HeapTable>(name, std::move(schema), num_versions_);
  tables_.emplace(ToLowerAscii(name), std::move(data));
  return Status::OK();
}

Status StorageEngine::DropTable(const std::string& name) {
  YOUTOPIA_RETURN_IF_ERROR(catalog_.DropTable(name));
  WriterMutexLock lock(tables_mu_);
  tables_.erase(ToLowerAscii(name));
  return Status::OK();
}

Result<StorageEngine::TableData*> StorageEngine::FindTable(
    const std::string& name) {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return &it->second;
}

Result<const StorageEngine::TableData*> StorageEngine::FindTable(
    const std::string& name) const {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return &it->second;
}

void StorageEngine::EraseOrphanedKeys(TableData* data, RowId rid,
                                      const std::vector<Tuple>& candidates,
                                      const std::vector<Tuple>& remaining) {
  if (candidates.empty()) return;
  for (auto& [col, index] : data->indexes) {
    for (const Tuple& t : candidates) {
      if (col >= t.size()) continue;
      const Value& key = t.at(col);
      if (!ContainsKey(remaining, col, key)) index->Erase(key, rid);
    }
  }
}

void StorageEngine::PruneRow(TableData* data, RowId rid, Ts low_water) {
  std::vector<Tuple> pruned;
  if (!data->heap->Prune(rid, low_water, &pruned, nullptr).ok()) return;
  if (pruned.empty()) return;
  EraseOrphanedKeys(data, rid, pruned, data->heap->VersionTuples(rid));
}

void StorageEngine::FinishWrite(TableData* data, const std::string& table,
                                RowId rid, TxnId txn, Ts low_water) {
  if (txn != 0) {
    txn_writes_[txn].emplace_back(ToLowerAscii(table), rid);
  } else {
    PruneRow(data, rid, low_water);
  }
}

Status StorageEngine::CreateIndex(const std::string& table,
                                  const std::string& column) {
  auto info = catalog_.GetTable(table);
  if (!info.ok()) return info.status();
  auto col = info->schema.ColumnIndex(column);
  if (!col.ok()) return col.status();

  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  if (data->indexes.count(col.value()) > 0) {
    return Status::AlreadyExists("index already exists on " + table + "." +
                                 column);
  }
  auto index = std::make_unique<HashIndex>(col.value());
  for (RowId rid = 0; rid < data->heap->slot_count(); ++rid) {
    std::vector<Value> keys;
    for (const Tuple& t : data->heap->VersionTuples(rid)) {
      const Value& key = t.at(col.value());
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
      keys.push_back(key);
      index->Insert(key, rid);
    }
  }
  data->indexes.emplace(col.value(), std::move(index));
  YOUTOPIA_RETURN_IF_ERROR(catalog_.AddIndexedColumn(table, col.value()));
  return Status::OK();
}

Result<RowId> StorageEngine::Insert(const std::string& table,
                                    const Tuple& tuple, TxnId txn) {
  ScopedAutoCommit auto_commit(&mvcc_, txn);
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  auto rid = data->heap->Insert(tuple, auto_commit.stamp());
  if (!rid.ok()) return rid.status();
  // The heap validated/coerced the tuple; index the stored form.
  auto stored = data->heap->Get(rid.value());
  if (!stored.ok()) return stored.status();
  for (auto& [col, index] : data->indexes) {
    index->Insert(stored->at(col), rid.value());
  }
  FinishWrite(data, table, rid.value(), txn, auto_commit.low_water());
  return rid.value();
}

Status StorageEngine::Delete(const std::string& table, RowId rid, TxnId txn) {
  ScopedAutoCommit auto_commit(&mvcc_, txn);
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  YOUTOPIA_RETURN_IF_ERROR(data->heap->Delete(rid, auto_commit.stamp()));
  // Index keys stay: the deleted version remains visible to older
  // snapshots until the tombstone passes below the low-water mark
  // (pruning erases them then; Probe filters until it does).
  FinishWrite(data, table, rid, txn, auto_commit.low_water());
  return Status::OK();
}

Status StorageEngine::Update(const std::string& table, RowId rid,
                             const Tuple& tuple, TxnId txn) {
  ScopedAutoCommit auto_commit(&mvcc_, txn);
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  auto old = data->heap->Get(rid);
  if (!old.ok()) return old.status();
  // Version-aware index maintenance: a key reachable through any
  // retained version must stay indexed; keys no version holds anymore
  // must go. An Update can only (a) push a new head — so only the new
  // image's keys can appear — or (b) collapse an intra-transaction
  // pending head — so only the collapsed image's keys can vanish. Both
  // are no-ops when the indexed column's value didn't change (the
  // dominant case), so the chain is probed in place instead of being
  // materialized twice per row; this runs under the tables latch, and
  // shortening it is what keeps snapshot readers flowing past writers.
  bool collapsed = false;
  YOUTOPIA_RETURN_IF_ERROR(
      data->heap->Update(rid, tuple, auto_commit.stamp(), &collapsed));
  if (!data->indexes.empty()) {
    auto stored = data->heap->Get(rid);
    if (!stored.ok()) return stored.status();
    for (auto& [col, index] : data->indexes) {
      if (col >= stored->size() || col >= old->size()) continue;
      const Value& new_key = stored->at(col);
      const Value& old_key = old->at(col);
      if (new_key == old_key) continue;
      // Skip the new head itself: the question is whether some retained
      // older version already posted this key for the slot.
      if (!data->heap->ChainHasKey(rid, col, new_key, /*skip_newest=*/1)) {
        index->Insert(new_key, rid);
      }
      if (collapsed && !data->heap->ChainHasKey(rid, col, old_key)) {
        index->Erase(old_key, rid);
      }
    }
  }
  FinishWrite(data, table, rid, txn, auto_commit.low_water());
  return Status::OK();
}

Status StorageEngine::CommitTxn(TxnId txn) {
  if (txn == 0) return Status::OK();
  {
    ReaderMutexLock lock(tables_mu_);
    if (txn_writes_.count(txn) == 0) return Status::OK();
  }
  // Timestamp issuance brackets the stamping pass: the commit stays in
  // flight (holding the watermark down) until every row is stamped, so
  // no snapshot can open between two rows of this commit.
  const Ts commit_ts = mvcc_.BeginCommit();
  const Ts low_water = mvcc_.LowWater();
  {
    WriterMutexLock lock(tables_mu_);
    auto it = txn_writes_.find(txn);
    if (it != txn_writes_.end()) {
      auto writes = std::move(it->second);
      txn_writes_.erase(it);
      for (const auto& [table, rid] : writes) {
        auto td = FindTable(table);
        if (!td.ok()) continue;  // table dropped mid-transaction (DDL)
        std::vector<Tuple> pruned;
        Status s = td.value()->heap->CommitVersions(
            rid, txn, commit_ts, low_water, &pruned, nullptr);
        if (!s.ok()) {
          mvcc_.EndCommit(commit_ts);
          return s;
        }
        EraseOrphanedKeys(td.value(), rid, pruned,
                          td.value()->heap->VersionTuples(rid));
      }
    }
  }
  mvcc_.EndCommit(commit_ts);
  return Status::OK();
}

Status StorageEngine::AbortTxn(TxnId txn) {
  if (txn == 0) return Status::OK();
  WriterMutexLock lock(tables_mu_);
  auto it = txn_writes_.find(txn);
  if (it == txn_writes_.end()) return Status::OK();
  auto writes = std::move(it->second);
  txn_writes_.erase(it);
  for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
    auto td = FindTable(w->first);
    if (!td.ok()) continue;  // table dropped mid-transaction (DDL)
    std::vector<Tuple> removed;
    Status s =
        td.value()->heap->AbortVersions(w->second, txn, &removed, nullptr);
    if (!s.ok()) return s;
    EraseOrphanedKeys(td.value(), w->second, removed,
                      td.value()->heap->VersionTuples(w->second));
  }
  return Status::OK();
}

Result<Tuple> StorageEngine::Get(const std::string& table, RowId rid) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->Get(rid);
}

Result<Tuple> StorageEngine::GetSnapshot(const std::string& table, RowId rid,
                                         Ts snapshot_ts) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->GetVisible(rid, snapshot_ts);
}

Result<std::vector<std::pair<RowId, Tuple>>> StorageEngine::Probe(
    const std::string& table, const std::vector<ProbeKey>& keys,
    Ts snapshot) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  const TableData* data = td.value();
  // The shortest posting list among the indexed keys. Each index latch is
  // released before the heap latch is taken (kHeapTable ranks below
  // kHashIndex); writers hold tables_mu_ exclusive, so the lists cannot
  // change in between.
  const ProbeKey* best = nullptr;
  const HashIndex* best_index = nullptr;
  size_t best_count = 0;
  for (const ProbeKey& key : keys) {
    auto it = data->indexes.find(key.column);
    if (it == data->indexes.end()) continue;
    const size_t count = it->second->Count(key.value);
    if (best == nullptr || count < best_count) {
      best = &key;
      best_index = it->second.get();
      best_count = count;
    }
  }
  std::vector<std::pair<RowId, Tuple>> rows;
  if (best == nullptr) {
    full_walks_.fetch_add(1, std::memory_order_relaxed);
    rows = data->heap->Select(nullptr, keys, snapshot);
  } else {
    // Postings cover every retained version's key; Select re-verifies
    // the keys against the version the reader sees.
    std::vector<RowId> rids = best_index->Lookup(best->value);
    postings_read_.fetch_add(rids.size(), std::memory_order_relaxed);
    std::sort(rids.begin(), rids.end());
    rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
    rows = data->heap->Select(&rids, keys, snapshot);
  }
  rows_copied_.fetch_add(rows.size(), std::memory_order_relaxed);
  return rows;
}

bool StorageEngine::HasIndex(const std::string& table,
                             const std::string& column) const {
  auto info = catalog_.GetTable(table);
  if (!info.ok()) return false;
  auto col = info->schema.FindColumn(column);
  if (!col) return false;
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return false;
  return td.value()->indexes.count(*col) > 0;
}

Result<size_t> StorageEngine::TableSize(const std::string& table) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->size();
}

Result<size_t> StorageEngine::TableSlotCount(const std::string& table) const {
  ReaderMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  return td.value()->heap->slot_count();
}

Status StorageEngine::LoadTableSnapshot(
    const std::string& table, size_t slot_count,
    const std::vector<std::pair<RowId, Tuple>>& rows) {
  WriterMutexLock lock(tables_mu_);
  auto td = FindTable(table);
  if (!td.ok()) return td.status();
  TableData* data = td.value();
  YOUTOPIA_RETURN_IF_ERROR(data->heap->LoadSnapshot(slot_count, rows));
  for (auto& [col, index] : data->indexes) {
    for (const auto& [rid, tuple] : data->heap->Scan()) {
      index->Insert(tuple.at(col), rid);
    }
  }
  return Status::OK();
}

void StorageEngine::Vacuum() {
  const Ts low_water = mvcc_.LowWater();
  WriterMutexLock lock(tables_mu_);
  for (auto& [name, data] : tables_) {
    const size_t slots = data.heap->slot_count();
    for (RowId rid = 0; rid < slots; ++rid) PruneRow(&data, rid, low_water);
  }
}

}  // namespace youtopia
