#include "entangle/match_graph.h"

#include <functional>
#include <map>

#include "entangle/unification.h"

namespace youtopia {

namespace {

/// Full symbolic unification check on a fresh substitution spanning both
/// queries' variables.
bool CanUnify(const EntangledQuery& from, size_t constraint_index,
              const EntangledQuery& to, size_t head_index) {
  const AnswerAtom& constraint = from.constraints[constraint_index];
  const AnswerAtom& head = to.heads[head_index];
  if (!AtomsMayUnify(constraint, head)) return false;

  // Constraint vars occupy [0, from.num_vars()); head vars are shifted
  // past them so the two queries' variables stay distinct.
  Substitution subst(from.num_vars() + to.num_vars());
  const AnswerAtom& c_global = constraint;
  AnswerAtom h_global = head;
  for (Term& t : h_global.terms) {
    if (t.is_variable()) {
      t.var = static_cast<VarId>(t.var + from.num_vars());
    }
  }
  return UnifyAtoms(c_global, h_global, &subst);
}

}  // namespace

MatchGraph BuildMatchGraph(const PendingPool& pool) {
  MatchGraph graph;
  graph.nodes = pool.AllIds();
  for (QueryId from_id : graph.nodes) {
    auto from = pool.Get(from_id);
    for (size_t ci = 0; ci < from->constraints.size(); ++ci) {
      const auto providers =
          pool.QueriesWithHeadOn(from->constraints[ci].relation);
      for (QueryId to_id : providers) {
        auto to = pool.Get(to_id);
        for (size_t hi = 0; hi < to->heads.size(); ++hi) {
          if (CanUnify(*from, ci, *to, hi)) {
            graph.edges.push_back({from_id, ci, to_id, hi});
          }
        }
      }
    }
  }
  return graph;
}

std::vector<std::vector<QueryId>> MatchGraph::Components() const {
  std::map<QueryId, QueryId> parent;
  for (QueryId n : nodes) parent[n] = n;
  std::function<QueryId(QueryId)> find = [&](QueryId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : edges) {
    QueryId a = find(e.from);
    QueryId b = find(e.to);
    if (a != b) parent[a] = b;
  }
  std::map<QueryId, std::vector<QueryId>> groups;
  for (QueryId n : nodes) groups[find(n)].push_back(n);
  std::vector<std::vector<QueryId>> out;
  out.reserve(groups.size());
  for (auto& [root, members] : groups) out.push_back(std::move(members));
  return out;
}

std::string MatchGraph::ToString(const PendingPool& pool) const {
  std::string out = "Match graph: " + std::to_string(nodes.size()) +
                    " pending queries, " + std::to_string(edges.size()) +
                    " candidate edges\n";
  for (QueryId n : nodes) {
    auto q = pool.Get(n);
    out += "  node #" + std::to_string(n);
    if (q != nullptr && !q->owner.empty()) out += " (" + q->owner + ")";
    out += "\n";
  }
  for (const Edge& e : edges) {
    auto from = pool.Get(e.from);
    auto to = pool.Get(e.to);
    out += "  #" + std::to_string(e.from) + ".constraint[" +
           std::to_string(e.constraint_index) + "] ";
    if (from != nullptr) {
      out += from->constraints[e.constraint_index].ToString(&from->var_names);
    }
    out += "  -->  #" + std::to_string(e.to) + ".head[" +
           std::to_string(e.head_index) + "] ";
    if (to != nullptr) {
      out += to->heads[e.head_index].ToString(&to->var_names);
    }
    out += "\n";
  }
  const auto components = Components();
  out += "  components:";
  for (const auto& comp : components) {
    out += " {";
    for (size_t i = 0; i < comp.size(); ++i) {
      if (i > 0) out += ",";
      out += "#" + std::to_string(comp[i]);
    }
    out += "}";
  }
  out += "\n";
  return out;
}

}  // namespace youtopia
