#ifndef YOUTOPIA_SERVER_PLAN_CACHE_H_
#define YOUTOPIA_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"

namespace youtopia {

class Catalog;
struct PreparedStatement;
struct Statement;

/// True iff every table-version stamp `prepared` recorded when planning
/// started still matches the live catalog — the plan's bindings and
/// index choices are current. Relation-granular: DDL on an unrelated
/// table does not stale this plan. A statement with no table references
/// (constant SELECT) is always fresh. Defined in youtopia.cc, next to
/// the stamping code it mirrors.
bool PreparedStatementFresh(const PreparedStatement& prepared,
                            const Catalog& catalog);

/// A fully prepared (parsed + planned) statement, shared immutably: the
/// plan cache, every executing thread and every requeued task hold the
/// same object. Nothing behind this pointer mutates after construction
/// — per-execution state (ExecContext, lock bookkeeping, conflict
/// budgets) lives with the execution, never in the plan.
using PreparedStatementPtr = std::shared_ptr<const PreparedStatement>;

/// Configuration of the shared plan cache (YoutopiaConfig::plan_cache).
struct PlanCacheConfig {
  /// Maximum number of cached plans; least-recently-used entries are
  /// evicted beyond it. 0 disables the cache entirely — every statement
  /// is re-parsed and re-planned per submission, the seed's behavior.
  size_t capacity = 256;
};

/// Shared, thread-safe LRU cache of prepared statements, keyed by
/// normalized SQL text (design decision #7). One instance per Youtopia
/// engine sits under `Prepare`, so all three submission surfaces — the
/// in-process Client, executor-service worker tasks (including per-step
/// script prepares) and wire-protocol sessions — share hot plans.
///
/// Invalidation is table-version-based and lazy: every entry carries
/// the per-table version stamps recorded when planning *started*
/// (inside the PreparedStatement itself), and a lookup re-checks them
/// against the live catalog — a mismatch on any referenced table
/// discards the entry (a plan may depend on schema bindings and index
/// choices, both catalog state). Relation-granular: DDL on table A
/// leaves table B's plans warm. Stamping before planning makes a
/// concurrent DDL race safe in the stale direction only: the worst
/// case is an entry that is discarded although it happens to still be
/// valid, never a stale plan served as fresh.
class PlanCache {
 public:
  /// Counters for the admin snapshot and the workload report.
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    /// Entries displaced by capacity (LRU).
    size_t evictions = 0;
    /// Entries discarded on lookup because a referenced table's version
    /// stamp was stale (DDL on that table, or install-hook registration
    /// — which restamps every table — since planning).
    size_t invalidations = 0;
    size_t size = 0;
    size_t capacity = 0;

    double HitRate() const {
      const size_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Capacity 0 = disabled: lookups always miss, inserts are dropped,
  /// counters stay zero — byte-for-byte seed semantics.
  bool enabled() const { return capacity_ > 0; }

  /// Returns the cached plan for `key` if present and still fresh
  /// against `catalog` (PreparedStatementFresh over the entry's
  /// per-table stamps); nullptr otherwise. A stale entry is erased
  /// (counted as an invalidation, not a plain miss).
  PreparedStatementPtr Lookup(const std::string& key, const Catalog& catalog);

  /// Inserts (or replaces) the plan under `key`, evicting the least-
  /// recently-used entry beyond capacity. The freshness stamps travel
  /// inside the PreparedStatement itself. Failed prepares are never
  /// inserted by callers.
  void Insert(const std::string& key, PreparedStatementPtr plan);

  /// Drops every entry (tests, manual admin reset).
  void Clear();

  Stats stats() const;
  size_t size() const;

  /// The cache key for a SQL text: ASCII whitespace runs and `--`
  /// comments (up to the newline, where the lexer ends them) collapsed
  /// to one space, single-quoted literals preserved verbatim, ends
  /// trimmed, one trailing ';' dropped. A text and its key parse to the
  /// same statement or both fail to parse, so equal keys never name
  /// different statements. Cheaper than lexing — the key must cost less
  /// than the parse it saves — so keyword case is NOT folded: 'select 1'
  /// and 'SELECT 1' are distinct entries, which costs a duplicate slot,
  /// never a wrong answer.
  static std::string NormalizeKey(std::string_view sql);

  /// The admission rule: true iff the text of `stmt` can recur, so a
  /// cached plan for it can be hit again. Rejects a multi-row INSERT
  /// (its VALUES list is data, and the entry grows with it) and an
  /// entangled SELECT (it embeds its participants' names, and plans
  /// nothing). Both prepare sites consult it before inserting.
  static bool Cacheable(const Statement& stmt);

 private:
  struct Entry {
    std::string key;
    PreparedStatementPtr plan;
  };

  const size_t capacity_;

  /// The prepare path holds no other engine lock around cache calls;
  /// takes nothing itself.
  mutable Mutex mu_{LockRank::kPlanCache, "plan_cache"};
  /// Front = most recently used.
  std::list<Entry> lru_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_SERVER_PLAN_CACHE_H_
