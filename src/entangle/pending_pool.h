#ifndef YOUTOPIA_ENTANGLE_PENDING_POOL_H_
#define YOUTOPIA_ENTANGLE_PENDING_POOL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "entangle/entangled_query.h"
#include "types/value.h"

namespace youtopia {

/// The registry of entangled queries waiting for partners — the paper's
/// "internal tables that store the list of pending queries" (§2.2).
///
/// Besides id -> query storage it maintains the *signature index*
/// (design decision #1 in DESIGN.md): heads and constraints are indexed
/// by answer relation AND by the constant values they carry per
/// position. Arrival-triggered matching therefore only inspects
/// plausible partners — a constraint about 'Jerry' never considers the
/// thousands of pending queries about other travelers, which is what
/// keeps the loaded-system demo (paper §3) interactive.
///
/// Not internally synchronized: the Coordinator serializes all access
/// under its mutex. All id lists come back in ascending id order.
class PendingPool {
 public:
  PendingPool() = default;
  PendingPool(const PendingPool&) = delete;
  PendingPool& operator=(const PendingPool&) = delete;

  void Add(std::shared_ptr<const EntangledQuery> query);

  /// Removes and returns the query; nullptr if absent.
  std::shared_ptr<const EntangledQuery> Remove(QueryId id);

  /// nullptr if absent.
  std::shared_ptr<const EntangledQuery> Get(QueryId id) const;

  bool Contains(QueryId id) const { return queries_.count(id) > 0; }
  size_t size() const { return queries_.size(); }

  /// Ids in arrival (id) order.
  std::vector<QueryId> AllIds() const;

  /// Queries with at least one head on `relation` (case-insensitive).
  std::vector<QueryId> QueriesWithHeadOn(const std::string& relation) const;

  /// Queries with at least one constraint on `relation`.
  std::vector<QueryId> QueriesWithConstraintOn(
      const std::string& relation) const;

  /// Queries whose heads could provide `constraint`: filtered by
  /// relation and by the constraint's first constant position (heads
  /// carrying a different constant there are skipped without
  /// unification). A superset of the truly unifiable providers.
  std::vector<QueryId> CandidateProviders(const AnswerAtom& constraint) const;

  /// Queries having a constraint on `relation` that could match the
  /// newly installed `tuple` (exact AtomMayMatchTuple check). This is
  /// the retrigger set after an installation: only these queries can
  /// have gained a match opportunity.
  std::vector<QueryId> QueriesUnblockedBy(const std::string& relation,
                                          const Tuple& tuple) const;

  /// Queries with a domain predicate over `table` — the retrigger set
  /// after regular DML changes that table ("waits for an opportunity to
  /// retry", paper §1).
  std::vector<QueryId> QueriesWithDomainOn(const std::string& table) const;

 private:
  /// Per (relation, position): query ids bucketed by the constant at
  /// that position, plus the ids whose term there is a variable.
  struct PositionIndex {
    std::map<Value, std::set<QueryId>> constants;
    std::set<QueryId> variables;
  };
  /// relation (lowercase) -> position -> buckets.
  using AtomIndex = std::map<std::string, std::map<size_t, PositionIndex>>;

  static void IndexAtom(AtomIndex* index, const AnswerAtom& atom, QueryId id);
  static void UnindexAtom(AtomIndex* index, const AnswerAtom& atom,
                          QueryId id);

  std::map<QueryId, std::shared_ptr<const EntangledQuery>> queries_;
  /// Lowercased relation name -> query ids (coarse index).
  std::map<std::string, std::set<QueryId>> by_head_relation_;
  std::map<std::string, std::set<QueryId>> by_constraint_relation_;
  /// Lowercased base-table name -> queries whose domain predicates read
  /// that table.
  std::map<std::string, std::set<QueryId>> by_domain_table_;
  /// Fine-grained constant-position indexes.
  AtomIndex head_index_;
  AtomIndex constraint_index_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_ENTANGLE_PENDING_POOL_H_
