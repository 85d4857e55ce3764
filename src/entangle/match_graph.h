#ifndef YOUTOPIA_ENTANGLE_MATCH_GRAPH_H_
#define YOUTOPIA_ENTANGLE_MATCH_GRAPH_H_

#include <string>
#include <vector>

#include "entangle/pending_pool.h"

namespace youtopia {

/// A symbolic view of coordination opportunities among pending queries —
/// the structure the administrative interface visualizes (paper §3.2:
/// "visualize the state created by the matching algorithms").
///
/// Nodes are pending queries; a directed edge (from, constraint_index)
/// -> (to, head_index) means the constraint can symbolically unify with
/// the head (relation, arity, and per-position terms compatible under a
/// fresh substitution). Edges are a necessary but not sufficient
/// condition for matching — grounding against the database may still
/// fail.
struct MatchGraph {
  struct Edge {
    QueryId from = 0;
    size_t constraint_index = 0;
    QueryId to = 0;
    size_t head_index = 0;
  };

  std::vector<QueryId> nodes;
  std::vector<Edge> edges;

  /// Connected components over the undirected view of the edges —
  /// candidate coordination neighbourhoods.
  std::vector<std::vector<QueryId>> Components() const;

  /// Text rendering for the admin console.
  std::string ToString(const PendingPool& pool) const;
};

/// Builds the graph over all queries in the pool.
MatchGraph BuildMatchGraph(const PendingPool& pool);

}  // namespace youtopia

#endif  // YOUTOPIA_ENTANGLE_MATCH_GRAPH_H_
