#include "entangle/pending_pool.h"

#include "common/string_util.h"
#include "entangle/unification.h"

namespace youtopia {

void PendingPool::IndexAtom(AtomIndex* index, const AnswerAtom& atom,
                            QueryId id) {
  auto& positions = (*index)[ToLowerAscii(atom.relation)];
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    PositionIndex& bucket = positions[i];
    if (atom.terms[i].is_constant()) {
      bucket.constants[atom.terms[i].constant].insert(id);
    } else {
      bucket.variables.insert(id);
    }
  }
}

void PendingPool::UnindexAtom(AtomIndex* index, const AnswerAtom& atom,
                              QueryId id) {
  auto rel = index->find(ToLowerAscii(atom.relation));
  if (rel == index->end()) return;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    auto pos = rel->second.find(i);
    if (pos == rel->second.end()) continue;
    if (atom.terms[i].is_constant()) {
      auto value = pos->second.constants.find(atom.terms[i].constant);
      if (value != pos->second.constants.end()) {
        value->second.erase(id);
        if (value->second.empty()) pos->second.constants.erase(value);
      }
    } else {
      pos->second.variables.erase(id);
    }
    if (pos->second.constants.empty() && pos->second.variables.empty()) {
      rel->second.erase(pos);
    }
  }
  if (rel->second.empty()) index->erase(rel);
}

void PendingPool::Add(std::shared_ptr<const EntangledQuery> query) {
  const QueryId id = query->id;
  for (const AnswerAtom& h : query->heads) {
    by_head_relation_[ToLowerAscii(h.relation)].insert(id);
    IndexAtom(&head_index_, h, id);
  }
  for (const AnswerAtom& c : query->constraints) {
    by_constraint_relation_[ToLowerAscii(c.relation)].insert(id);
    IndexAtom(&constraint_index_, c, id);
  }
  for (const DomainPredicate& d : query->domains) {
    by_domain_table_[ToLowerAscii(d.table)].insert(id);
  }
  queries_.emplace(id, std::move(query));
}

std::shared_ptr<const EntangledQuery> PendingPool::Remove(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) return nullptr;
  auto query = it->second;
  queries_.erase(it);
  for (const AnswerAtom& h : query->heads) {
    auto rel = by_head_relation_.find(ToLowerAscii(h.relation));
    if (rel != by_head_relation_.end()) {
      rel->second.erase(id);
      if (rel->second.empty()) by_head_relation_.erase(rel);
    }
    UnindexAtom(&head_index_, h, id);
  }
  for (const AnswerAtom& c : query->constraints) {
    auto rel = by_constraint_relation_.find(ToLowerAscii(c.relation));
    if (rel != by_constraint_relation_.end()) {
      rel->second.erase(id);
      if (rel->second.empty()) by_constraint_relation_.erase(rel);
    }
    UnindexAtom(&constraint_index_, c, id);
  }
  for (const DomainPredicate& d : query->domains) {
    auto table = by_domain_table_.find(ToLowerAscii(d.table));
    if (table != by_domain_table_.end()) {
      table->second.erase(id);
      if (table->second.empty()) by_domain_table_.erase(table);
    }
  }
  return query;
}

std::shared_ptr<const EntangledQuery> PendingPool::Get(QueryId id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second;
}

std::vector<QueryId> PendingPool::AllIds() const {
  std::vector<QueryId> out;
  out.reserve(queries_.size());
  for (const auto& [id, query] : queries_) out.push_back(id);
  return out;
}

std::vector<QueryId> PendingPool::QueriesWithHeadOn(
    const std::string& relation) const {
  auto it = by_head_relation_.find(ToLowerAscii(relation));
  if (it == by_head_relation_.end()) return {};
  return std::vector<QueryId>(it->second.begin(), it->second.end());
}

std::vector<QueryId> PendingPool::QueriesWithConstraintOn(
    const std::string& relation) const {
  auto it = by_constraint_relation_.find(ToLowerAscii(relation));
  if (it == by_constraint_relation_.end()) return {};
  return std::vector<QueryId>(it->second.begin(), it->second.end());
}

std::vector<QueryId> PendingPool::QueriesWithDomainOn(
    const std::string& table) const {
  auto it = by_domain_table_.find(ToLowerAscii(table));
  if (it == by_domain_table_.end()) return {};
  return std::vector<QueryId>(it->second.begin(), it->second.end());
}

std::vector<QueryId> PendingPool::CandidateProviders(
    const AnswerAtom& constraint) const {
  const std::string rel_key = ToLowerAscii(constraint.relation);
  auto rel = head_index_.find(rel_key);
  if (rel == head_index_.end()) return {};

  // Filter on the constraint's first constant position: a providing
  // head must carry the same constant there or a variable.
  for (size_t i = 0; i < constraint.terms.size(); ++i) {
    if (!constraint.terms[i].is_constant()) continue;
    auto pos = rel->second.find(i);
    if (pos == rel->second.end()) break;  // no head has this position
    std::set<QueryId> merged = pos->second.variables;
    auto value = pos->second.constants.find(constraint.terms[i].constant);
    if (value != pos->second.constants.end()) {
      merged.insert(value->second.begin(), value->second.end());
    }
    return std::vector<QueryId>(merged.begin(), merged.end());
  }
  // All-variable constraint: every head on the relation is a candidate.
  return QueriesWithHeadOn(constraint.relation);
}

std::vector<QueryId> PendingPool::QueriesUnblockedBy(
    const std::string& relation, const Tuple& tuple) const {
  const std::string rel_key = ToLowerAscii(relation);
  auto rel = constraint_index_.find(rel_key);
  if (rel == constraint_index_.end()) return {};

  // Narrow by the tuple's first value, then verify exactly.
  std::set<QueryId> candidates;
  auto pos = rel->second.find(0);
  if (pos != rel->second.end() && !tuple.empty()) {
    candidates = pos->second.variables;
    auto value = pos->second.constants.find(tuple.at(0));
    if (value != pos->second.constants.end()) {
      candidates.insert(value->second.begin(), value->second.end());
    }
  } else {
    auto coarse = by_constraint_relation_.find(rel_key);
    if (coarse == by_constraint_relation_.end()) return {};
    candidates = coarse->second;
  }

  std::vector<QueryId> out;
  for (QueryId id : candidates) {
    auto query = Get(id);
    if (query == nullptr) continue;
    for (const AnswerAtom& c : query->constraints) {
      if (EqualsIgnoreCase(c.relation, relation) &&
          AtomMayMatchTuple(c, tuple)) {
        out.push_back(id);
        break;
      }
    }
  }
  return out;
}

}  // namespace youtopia
