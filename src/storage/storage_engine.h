#ifndef YOUTOPIA_STORAGE_STORAGE_ENGINE_H_
#define YOUTOPIA_STORAGE_STORAGE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "storage/hash_index.h"
#include "storage/heap_table.h"
#include "txn/mvcc.h"

namespace youtopia {

/// Facade tying together catalog, heap tables and secondary indexes.
/// All writes go through here so indexes stay consistent with the heaps.
/// This is the "regular database tables" substrate the Youtopia
/// coordination component reads and writes (paper §2.2).
///
/// Every table is multi-versioned (design decision #10): heaps keep
/// version chains of up to `num_versions` per row (the retention
/// budget), writes carry the writing transaction id (0 = auto-commit,
/// stamped immediately), CommitTxn / AbortTxn stamp or discard a
/// transaction's pending versions, and GetSnapshot / Probe resolve
/// visibility at a timestamp without any 2PL lock.
class StorageEngine {
 public:
  explicit StorageEngine(size_t num_versions = kDefaultNumVersions)
      : num_versions_(num_versions < 1 ? 1 : num_versions) {}
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Versions retained per row (the pruning budget).
  size_t num_versions() const { return num_versions_; }
  MvccController& mvcc() { return mvcc_; }
  const MvccController& mvcc() const { return mvcc_; }

  /// Creates the table in the catalog and its backing heap.
  Status CreateTable(const std::string& name, Schema schema);

  /// Drops catalog entry, heap and indexes.
  Status DropTable(const std::string& name);

  /// Builds a hash index over `column` of `table`, backfilling the key
  /// of every retained version (the posting invariant Update relies on:
  /// a key some version holds is indexed, so Probe finds the row at any
  /// snapshot).
  Status CreateIndex(const std::string& table, const std::string& column);

  /// Validated insert, maintaining all indexes on the table. `txn != 0`
  /// leaves the version pending until CommitTxn; `txn == 0` stamps it
  /// with a fresh commit timestamp immediately. Update and Delete take
  /// `txn` the same way, and at `txn == 0` prune the touched chain as
  /// CommitTxn does.
  Result<RowId> Insert(const std::string& table, const Tuple& tuple,
                       TxnId txn = 0);

  /// Deletes by rid. The old version (and its index keys) survive until
  /// the tombstone passes below the GC low-water mark.
  Status Delete(const std::string& table, RowId rid, TxnId txn = 0);

  /// Update: pushes a new version. Index keys of still-reachable old
  /// versions are kept (a snapshot reader probing the old key must
  /// still find the row); Probe re-verifies, so current reads never see
  /// them.
  Status Update(const std::string& table, RowId rid, const Tuple& tuple,
                TxnId txn = 0);

  /// Stamps every pending version `txn` wrote with one fresh commit
  /// timestamp (atomic for snapshot readers via the watermark
  /// protocol), prunes the touched chains against the GC low-water mark
  /// and retires orphaned index keys. No-op for transactions that wrote
  /// nothing.
  Status CommitTxn(TxnId txn);

  /// Discards every pending version `txn` wrote, restoring the chains
  /// (and indexes) to their pre-transaction state: transaction
  /// rollback.
  Status AbortTxn(TxnId txn);

  /// Head-version read (current read; pending versions included — 2PL
  /// keeps them writer-private).
  Result<Tuple> Get(const std::string& table, RowId rid) const;

  /// Version of `rid` visible at `snapshot_ts` (MVCC snapshot read).
  Result<Tuple> GetSnapshot(const std::string& table, RowId rid,
                            Ts snapshot_ts) const;

  /// The access path (design decision #13): rows of `table` whose
  /// columns equal every key, in RowId order, resolved at `snapshot` (0 =
  /// current read, pending versions included). Probes the indexed key
  /// with the shortest posting list, or walks the heap once when no key
  /// is indexed; either way only matching rows are copied and only Value
  /// comparisons run under the storage latches. No keys = every row.
  Result<std::vector<std::pair<RowId, Tuple>>> Probe(
      const std::string& table, const std::vector<ProbeKey>& keys,
      Ts snapshot = 0) const;

  /// Every current row (a keyless Probe).
  Result<std::vector<std::pair<RowId, Tuple>>> Scan(
      const std::string& table) const {
    return Probe(table, {});
  }

  /// Cumulative Probe counters: heap walks over every slot, rows copied
  /// out to callers, and index postings read.
  struct AccessStats {
    uint64_t full_walks = 0;
    uint64_t rows_copied = 0;
    uint64_t postings_read = 0;
  };
  AccessStats access_stats() const {
    return {full_walks_.load(std::memory_order_relaxed),
            rows_copied_.load(std::memory_order_relaxed),
            postings_read_.load(std::memory_order_relaxed)};
  }

  /// True if `table`.`column` has a hash index.
  bool HasIndex(const std::string& table, const std::string& column) const;

  Result<size_t> TableSize(const std::string& table) const;

  /// Allocated heap slots of `table`, live or dead (checkpoints persist
  /// this so recovery reproduces RowId assignment).
  Result<size_t> TableSlotCount(const std::string& table) const;

  /// Bulk-restores a checkpointed table into its (empty) heap, placing
  /// each tuple at its recorded RowId and maintaining any indexes that
  /// already exist. Recovery calls CreateTable → LoadTableSnapshot →
  /// CreateIndex, so index backfill normally happens afterwards.
  Status LoadTableSnapshot(const std::string& table, size_t slot_count,
                           const std::vector<std::pair<RowId, Tuple>>& rows);

  /// MVCC garbage collection sweep: prunes every chain against the
  /// current low-water mark and reclaims slots whose committed
  /// tombstone no snapshot can see (commit-time pruning only revisits
  /// rows the committing transaction touched, so fully dead slots and
  /// long-idle chains are reclaimed here).
  void Vacuum();

 private:
  struct TableData {
    std::unique_ptr<HeapTable> heap;
    /// Keyed by column index.
    std::unordered_map<size_t, std::unique_ptr<HashIndex>> indexes;
  };

  /// Returns the TableData for a (lowercased) name under tables_mu_.
  Result<TableData*> FindTable(const std::string& name)
      REQUIRES_SHARED(tables_mu_);
  Result<const TableData*> FindTable(const std::string& name) const
      REQUIRES_SHARED(tables_mu_);

  /// Erases index postings for `candidates` tuples of `rid` whose keys
  /// no longer appear in any retained version (`remaining`).
  static void EraseOrphanedKeys(TableData* data, RowId rid,
                                const std::vector<Tuple>& candidates,
                                const std::vector<Tuple>& remaining);

  /// Prunes `rid`'s chain against `low_water` and erases the index keys
  /// no retained version holds anymore.
  static void PruneRow(TableData* data, RowId rid, Ts low_water);

  /// After a write to `rid`: records it into `txn`'s write set for
  /// CommitTxn / AbortTxn, or, for an auto-commit write (`txn == 0`),
  /// prunes the chain now, since no commit will.
  void FinishWrite(TableData* data, const std::string& table, RowId rid,
                   TxnId txn, Ts low_water) REQUIRES(tables_mu_);

  const size_t num_versions_;
  Catalog catalog_;
  /// Commit clock + snapshot registry. Its internal mutex
  /// (kMvccClock) is only ever held alone; commit stamping calls it
  /// strictly before and strictly after the tables_mu_ critical
  /// section.
  MvccController mvcc_;
  mutable std::atomic<uint64_t> full_walks_{0};
  mutable std::atomic<uint64_t> rows_copied_{0};
  mutable std::atomic<uint64_t> postings_read_{0};
  /// Reader/writer latch over the table map and per-table index maps:
  /// reads (Probe, Get and GetSnapshot) take it shared so concurrent
  /// sessions — and executor-pool workers — read in parallel; anything
  /// that mutates a heap, an index or the map itself takes it exclusive.
  /// Row-level consistency within one heap is additionally guarded by
  /// HeapTable's own latch; this latch is what keeps the index maps
  /// consistent with the heaps.
  mutable SharedMutex tables_mu_{LockRank::kStorageTables,
                                 "storage_tables"};
  std::unordered_map<std::string, TableData> tables_ GUARDED_BY(tables_mu_);
  /// Pending write sets by transaction: the (table, rid)
  /// pairs CommitTxn must stamp or AbortTxn must discard. Guarded by
  /// tables_mu_ — every writer already holds it exclusive.
  std::unordered_map<TxnId, std::vector<std::pair<std::string, RowId>>>
      txn_writes_ GUARDED_BY(tables_mu_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_STORAGE_STORAGE_ENGINE_H_
