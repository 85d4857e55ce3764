#ifndef YOUTOPIA_CATALOG_CATALOG_H_
#define YOUTOPIA_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "types/schema.h"

namespace youtopia {

/// Unique id of a table within one Youtopia instance.
using TableId = uint32_t;

/// Catalog entry for one table.
struct TableInfo {
  TableId id = 0;
  std::string name;          ///< Original-case name as created.
  Schema schema;
  /// Column indexes that carry a hash index (maintained by the storage
  /// engine). Kept here so the planner can pick index scans.
  std::vector<size_t> indexed_columns;
  /// Schema-generation stamp of *this table*, drawn from the global
  /// version counter at every mutation that touches it (create, index
  /// add, install-hook registration). Monotone across drop/recreate —
  /// a recreated table always carries a fresh stamp, so a plan built
  /// against the old incarnation can never read as current.
  uint64_t version = 0;
};

/// Name → table metadata registry. Names are case-insensitive. The catalog
/// is thread-safe: the coordination component resolves table metadata from
/// concurrent sessions.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a new table; fails with AlreadyExists on duplicate names.
  Result<TableId> CreateTable(const std::string& name, Schema schema);

  /// Unregisters; fails with NotFound if absent.
  Status DropTable(const std::string& name);

  /// Metadata lookup by name (copy; metadata is small).
  Result<TableInfo> GetTable(const std::string& name) const;

  /// Metadata lookup by id.
  Result<TableInfo> GetTable(TableId id) const;

  bool HasTable(const std::string& name) const;

  /// Records that `column_index` of `table` now has a hash index.
  Status AddIndexedColumn(const std::string& table, size_t column_index);

  /// All tables, sorted by name (for the admin interface).
  std::vector<TableInfo> ListTables() const;

  /// Monotone schema-generation counter, bumped by every successful
  /// mutation (CreateTable / DropTable / AddIndexedColumn) and by
  /// out-of-band semantic changes reported via BumpVersion (the
  /// coordinator's install-hook registration). The plan cache stamps
  /// every cached plan with the version current when planning started;
  /// a stamp that no longer matches marks the plan stale (design
  /// decision #7). Readable without the catalog mutex — the prepare
  /// path polls it per statement.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Marks every plan prepared before this call stale. Called
  /// internally by the mutators above; external components call it when
  /// they change something plans may depend on without touching the
  /// catalog maps themselves.
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  /// Per-table schema-generation stamp (design decision #7, refined):
  /// the version counter the plan cache actually compares, so DDL on
  /// one table leaves every other table's plans warm. 0 when the table
  /// does not exist — which also never matches a recorded stamp, so a
  /// plan over a dropped table reads as stale.
  uint64_t TableVersion(const std::string& name) const;

  /// Bumps the global counter once and restamps *every* table with the
  /// new value: a semantic change that isn't scoped to one table (the
  /// coordinator's install-hook registration changes how entangled
  /// answers appear everywhere) must stale all plans, per-table stamps
  /// included.
  void BumpAllTableVersions();

 private:
  /// Acquired inside DDL critical sections (under kWal) and from the
  /// planner/matcher with the coordinator mutex held; takes nothing
  /// itself.
  mutable Mutex mu_{LockRank::kCatalog, "catalog"};
  TableId next_id_ GUARDED_BY(mu_) = 1;
  std::atomic<uint64_t> version_{1};
  /// Keyed by lowercase name.
  std::map<std::string, TableInfo> tables_ GUARDED_BY(mu_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_CATALOG_CATALOG_H_
