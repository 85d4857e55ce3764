#include "entangle/matcher.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "exec/expression_eval.h"
#include "exec/planner.h"

namespace youtopia {

Term Matcher::Globalize(const Term& t, size_t var_base) {
  if (t.is_constant()) return t;
  return Term::Variable(static_cast<VarId>(var_base + t.var), t.offset);
}

AnswerAtom Matcher::GlobalizeAtom(const AnswerAtom& atom, size_t var_base) {
  AnswerAtom out;
  out.relation = atom.relation;
  out.terms.reserve(atom.terms.size());
  for (const Term& t : atom.terms) out.terms.push_back(Globalize(t, var_base));
  return out;
}

size_t Matcher::AddMember(GroupState* state,
                          std::shared_ptr<const EntangledQuery> query) {
  Member member;
  member.var_base = state->subst.num_vars();
  state->subst.AddVars(query->num_vars());
  member.query = std::move(query);
  state->members.push_back(std::move(member));
  const size_t index = state->members.size() - 1;
  const auto& constraints = state->members[index].query->constraints;
  for (size_t ci = 0; ci < constraints.size(); ++ci) {
    state->obligations.emplace_back(index, ci);
  }
  return index;
}

std::optional<Value> Matcher::ResolveTerm(const Term& term,
                                          const Substitution& subst) {
  if (term.is_constant()) return term.constant;
  auto bound = subst.Lookup(term.var);
  if (!bound.has_value()) return std::nullopt;
  if (term.offset == 0) return bound;
  if (bound->type() != DataType::kInt64) return std::nullopt;
  return Value::Int64(bound->int64_value() + term.offset);
}

Result<std::vector<Tuple>> Matcher::StoredCandidates(
    const AnswerAtom& constraint) const {
  auto info = storage_->catalog().GetTable(constraint.relation);
  if (!info.ok()) return std::vector<Tuple>{};  // relation not created yet
  if (info->schema.num_columns() != constraint.arity()) {
    return std::vector<Tuple>{};
  }

  // Constant terms must match exactly (unification compares Values by
  // identity), which is the Probe's key semantics.
  std::vector<ProbeKey> keys;
  for (size_t i = 0; i < constraint.arity(); ++i) {
    const Term& t = constraint.terms[i];
    if (t.is_constant()) keys.push_back({i, t.constant});
  }
  auto rows = storage_->Probe(constraint.relation, keys);
  if (!rows.ok()) return rows.status();
  std::vector<Tuple> out;
  out.reserve(rows->size());
  for (auto& row : *rows) out.push_back(std::move(row.second));
  return out;
}

Result<std::optional<MatchResult>> Matcher::TryMatch(QueryId root,
                                                     const PendingView& pool) {
  auto query = pool.Get(root);
  if (query == nullptr) {
    return Status::NotFound("query " + std::to_string(root) +
                            " is not pending");
  }
  GroupState state;
  AddMember(&state, query);

  SearchStats stats;
  MatchResult result;
  auto matched = Search(std::move(state), pool, &stats, &result);
  if (!matched.ok()) return matched.status();
  if (!matched.value()) return std::optional<MatchResult>{};
  result.steps = stats.steps;
  return std::optional<MatchResult>(std::move(result));
}

Result<bool> Matcher::Search(GroupState state, const PendingView& pool,
                             SearchStats* stats, MatchResult* result) {
  if (state.obligations.empty()) {
    return TryGround(state, stats, result);
  }
  if (stats->budget_exhausted || ++stats->steps > config_.max_steps) {
    stats->budget_exhausted = true;
    return false;
  }

  const auto [m, ci] = state.obligations.back();
  state.obligations.pop_back();
  const AnswerAtom constraint = GlobalizeAtom(
      state.members[m].query->constraints[ci], state.members[m].var_base);

  // Option A: a head of a query already in the group (including the
  // obligation's own query — a query's contribution satisfies its own
  // constraints, per the answer-relation semantics).
  for (size_t mi = 0; mi < state.members.size(); ++mi) {
    const Member& member = state.members[mi];
    for (const AnswerAtom& h : member.query->heads) {
      if (!AtomsMayUnify(constraint, h)) continue;
      GroupState next = state;
      const AnswerAtom head = GlobalizeAtom(h, member.var_base);
      if (!UnifyAtoms(constraint, head, &next.subst)) continue;
      auto r = Search(std::move(next), pool, stats, result);
      if (!r.ok() || r.value()) return r;
    }
  }

  // Option B: an answer tuple installed by an earlier coordination
  // round (the browse-then-book path of the demo, §3.1).
  if (config_.allow_stored_answers) {
    auto tuples = StoredCandidates(constraint);
    if (!tuples.ok()) return tuples.status();
    for (const Tuple& tuple : *tuples) {
      GroupState next = state;
      if (!UnifyAtomWithTuple(constraint, tuple, &next.subst)) continue;
      ++next.from_stored;
      auto r = Search(std::move(next), pool, stats, result);
      if (!r.ok() || r.value()) return r;
    }
  }

  // Option C: recruit another pending query whose head can provide the
  // required tuple; its own constraints become new obligations.
  if (state.members.size() < config_.max_group_size) {
    std::vector<QueryId> candidates =
        config_.use_signature_index
            ? pool.CandidateProviders(constraint)
            : pool.AllIds();
    for (QueryId qid : candidates) {
      bool already_member = false;
      for (const Member& member : state.members) {
        if (member.query->id == qid) {
          already_member = true;
          break;
        }
      }
      if (already_member) continue;
      auto candidate = pool.Get(qid);
      if (candidate == nullptr) continue;
      for (size_t hi = 0; hi < candidate->heads.size(); ++hi) {
        if (!AtomsMayUnify(constraint, candidate->heads[hi])) continue;
        GroupState next = state;
        const size_t mi = AddMember(&next, candidate);
        const AnswerAtom head = GlobalizeAtom(
            candidate->heads[hi], next.members[mi].var_base);
        if (!UnifyAtoms(constraint, head, &next.subst)) continue;
        auto r = Search(std::move(next), pool, stats, result);
        if (!r.ok() || r.value()) return r;
      }
    }
  }

  return false;
}

Result<bool> Matcher::TryGround(const GroupState& state, SearchStats* stats,
                                MatchResult* result) {
  std::set<size_t> roots;
  for (size_t v = 0; v < state.subst.num_vars(); ++v) {
    roots.insert(state.subst.Root(v));
  }
  std::vector<size_t> class_roots(roots.begin(), roots.end());
  return GroundClasses(state, state.subst, class_roots, stats, result);
}

Result<std::optional<std::vector<Value>>> Matcher::EvaluateDomain(
    const DomainPredicate& domain, size_t var_base,
    const Substitution& subst) const {
  // Resolve correlated condition terms; defer if any is unbound.
  std::vector<Value> rhs;
  rhs.reserve(domain.conditions.size());
  for (const auto& cond : domain.conditions) {
    const Term global = Globalize(cond.rhs, var_base);
    auto value = ResolveTerm(global, subst);
    if (!value.has_value()) {
      if (global.is_constant()) {
        return Status::Internal("constant term failed to resolve");
      }
      return std::optional<std::vector<Value>>{};  // defer
    }
    rhs.push_back(std::move(*value));
  }

  auto info = storage_->catalog().GetTable(domain.table);
  if (!info.ok()) return info.status();
  auto out_col = info->schema.ColumnIndex(domain.output_column);
  if (!out_col.ok()) return out_col.status();

  // Equalities the probe answers exactly become its keys; the other
  // conditions are checked per probed row, as (column, condition) pairs.
  std::vector<ProbeKey> keys;
  std::vector<std::pair<size_t, size_t>> residual;
  for (size_t i = 0; i < domain.conditions.size(); ++i) {
    auto col = info->schema.ColumnIndex(domain.conditions[i].column);
    if (!col.ok()) return col.status();
    std::optional<Value> key;
    if (domain.conditions[i].op == BinaryOp::kEq) {
      key = ProbeKeyFor(rhs[i], info->schema.column(col.value()).type);
    }
    if (key.has_value()) {
      keys.push_back({col.value(), std::move(*key)});
    } else {
      residual.emplace_back(col.value(), i);
    }
  }
  auto rows = storage_->Probe(domain.table, keys);
  if (!rows.ok()) return rows.status();

  std::set<Value> values;
  for (const auto& [rid, row] : *rows) {
    bool keep = true;
    for (const auto& [col, i] : residual) {
      auto ok = CompareValuesBool(domain.conditions[i].op, row.at(col), rhs[i]);
      if (!ok.ok()) return ok.status();
      if (!ok.value()) {
        keep = false;
        break;
      }
    }
    if (keep) values.insert(row.at(out_col.value()));
  }
  return std::optional<std::vector<Value>>(
      std::vector<Value>(values.begin(), values.end()));
}

Result<bool> Matcher::GroundClasses(const GroupState& state,
                                    Substitution subst,
                                    const std::vector<size_t>& class_roots,
                                    SearchStats* stats, MatchResult* result) {
  // Classes still unbound under the current substitution.
  std::vector<size_t> unbound;
  for (size_t r : class_roots) {
    if (!subst.Lookup(r).has_value()) unbound.push_back(r);
  }
  if (unbound.empty()) {
    return FinalizeGrounding(state, subst, result);
  }

  // For each unbound class, intersect the candidate sets of all its
  // *currently evaluable* domain predicates; pick the most constrained
  // class (fail-first heuristic).
  bool have_best = false;
  size_t best_root = 0;
  std::vector<Value> best_candidates;

  for (size_t target : unbound) {
    std::vector<Value> candidates;
    bool have = false;
    for (const Member& member : state.members) {
      for (const DomainPredicate& domain : member.query->domains) {
        const size_t gv = member.var_base + domain.output_var;
        if (subst.Root(gv) != target) continue;
        auto eval = EvaluateDomain(domain, member.var_base, subst);
        if (!eval.ok()) return eval.status();
        if (!eval->has_value()) continue;  // correlated, deferred
        // domain binds value(gv); class root value = value(gv) - offset.
        const int64_t off = subst.OffsetToRoot(gv);
        std::vector<Value> adjusted;
        adjusted.reserve(eval->value().size());
        for (const Value& v : eval->value()) {
          if (off == 0) {
            adjusted.push_back(v);
          } else if (v.type() == DataType::kInt64) {
            adjusted.push_back(Value::Int64(v.int64_value() - off));
          }
        }
        if (!have) {
          candidates = std::move(adjusted);
          have = true;
        } else {
          std::vector<Value> merged;
          std::set<Value> lookup(adjusted.begin(), adjusted.end());
          for (const Value& v : candidates) {
            if (lookup.count(v) > 0) merged.push_back(v);
          }
          candidates = std::move(merged);
        }
      }
    }
    if (!have) continue;
    if (!have_best || candidates.size() < best_candidates.size()) {
      have_best = true;
      best_root = target;
      best_candidates = std::move(candidates);
    }
    if (have_best && best_candidates.empty()) break;  // dead end, fail fast
    // Ablation: take the first evaluable class instead of scanning for
    // the most constrained one.
    if (have_best && !config_.prefer_most_constrained) break;
  }

  if (!have_best) {
    // No class is evaluable: either an unsafe query (variable without a
    // domain) or an unresolvable correlation cycle. This grounding
    // branch fails.
    return false;
  }

  // CHOOSE-1 nondeterminism: shuffle the candidate order.
  for (size_t i = best_candidates.size(); i > 1; --i) {
    std::swap(best_candidates[i - 1],
              best_candidates[rng_.NextBelow(i)]);
  }

  for (const Value& v : best_candidates) {
    if (stats->budget_exhausted ||
        ++stats->grounding_attempts > config_.max_grounding_attempts) {
      stats->budget_exhausted = true;
      return false;
    }
    Substitution next = subst;
    if (!next.UnifyConstant(best_root, 0, v)) continue;
    auto r = GroundClasses(state, std::move(next), class_roots, stats, result);
    if (!r.ok() || r.value()) return r;
  }
  return false;
}

Result<bool> Matcher::FinalizeGrounding(const GroupState& state,
                                        const Substitution& subst,
                                        MatchResult* result) {
  // Verify every domain predicate under the full grounding. (Candidates
  // were drawn from a single predicate per class; all others must agree.)
  for (const Member& member : state.members) {
    for (const DomainPredicate& domain : member.query->domains) {
      auto eval = EvaluateDomain(domain, member.var_base, subst);
      if (!eval.ok()) return eval.status();
      if (!eval->has_value()) return false;  // should not happen; fail safe
      auto bound = subst.Lookup(member.var_base + domain.output_var);
      if (!bound.has_value()) return false;
      const auto& values = eval->value();
      if (std::find(values.begin(), values.end(), *bound) == values.end()) {
        return false;
      }
    }
    for (const VarComparison& cmp : member.query->comparisons) {
      auto lhs = ResolveTerm(Globalize(cmp.lhs, member.var_base), subst);
      auto rhs = ResolveTerm(Globalize(cmp.rhs, member.var_base), subst);
      if (!lhs.has_value() || !rhs.has_value()) return false;
      auto ok = CompareValuesBool(cmp.op, *lhs, *rhs);
      if (!ok.ok()) return ok.status();
      if (!ok.value()) return false;
    }
  }

  // Build the grounded answers.
  MatchResult out;
  out.from_stored = state.from_stored;
  std::set<std::string> relations;
  for (const Member& member : state.members) {
    out.group.push_back(member.query->id);
    std::vector<Tuple> tuples;
    tuples.reserve(member.query->heads.size());
    for (const AnswerAtom& head : member.query->heads) {
      Tuple tuple;
      for (const Term& t : head.terms) {
        auto v = ResolveTerm(Globalize(t, member.var_base), subst);
        if (!v.has_value()) return false;  // head variable never grounded
        tuple.Append(std::move(*v));
      }
      relations.insert(ToLowerAscii(head.relation));
      bool duplicate = false;
      for (const auto& [rel, existing] : out.installed) {
        if (EqualsIgnoreCase(rel, head.relation) && existing == tuple) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) out.installed.emplace_back(head.relation, tuple);
      tuples.push_back(std::move(tuple));
    }
    out.answers.emplace(member.query->id, std::move(tuples));
  }
  out.relations.assign(relations.begin(), relations.end());
  *result = std::move(out);
  return true;
}

}  // namespace youtopia
