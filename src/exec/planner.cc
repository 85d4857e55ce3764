#include "exec/planner.h"

#include <cmath>

#include "sql/unparser.h"

namespace youtopia {

std::vector<const Expr*> SplitConjuncts(const Expr* predicate) {
  std::vector<const Expr*> out;
  if (predicate == nullptr) return out;
  if (predicate->kind == ExprKind::kBinary) {
    const auto& b = As<BinaryExpr>(*predicate);
    if (b.op == BinaryOp::kAnd) {
      auto left = SplitConjuncts(b.left.get());
      auto right = SplitConjuncts(b.right.get());
      out.insert(out.end(), left.begin(), left.end());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
  }
  out.push_back(predicate);
  return out;
}

std::optional<Value> ProbeKeyFor(const Value& literal, DataType type) {
  if (literal.is_null()) return std::nullopt;
  if (literal.type() == type) return literal;
  // Across INT and DOUBLE, `=` compares as doubles: it agrees with
  // identity for integral values below 2^53, which are exact either way.
  constexpr double kExact = 9007199254740992.0;
  auto d = literal.AsDouble();
  if ((type != DataType::kInt64 && type != DataType::kDouble) || !d.ok() ||
      std::fabs(*d) >= kExact || *d != std::trunc(*d)) {
    return std::nullopt;
  }
  return type == DataType::kInt64 ? Value::Int64(static_cast<int64_t>(*d))
                                  : Value::Double(*d);
}

namespace {

std::optional<ProbeKey> AbsorbEquality(const Expr* conjunct,
                                       const BoundColumns& columns,
                                       size_t base, const Schema& schema) {
  if (conjunct->kind != ExprKind::kBinary) return std::nullopt;
  const auto& b = As<BinaryExpr>(*conjunct);
  if (b.op != BinaryOp::kEq) return std::nullopt;
  const Expr* col_side = b.left.get();
  const Expr* lit_side = b.right.get();
  if (col_side->kind == ExprKind::kLiteral) std::swap(col_side, lit_side);
  if (col_side->kind != ExprKind::kColumnRef ||
      lit_side->kind != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const auto& col = As<ColumnRefExpr>(*col_side);
  auto index = columns.Resolve(col.qualifier, col.column);
  if (!index.ok() || index.value() < base ||
      index.value() >= base + schema.num_columns()) {
    return std::nullopt;
  }
  const size_t column = index.value() - base;
  auto key =
      ProbeKeyFor(As<LiteralExpr>(*lit_side).value, schema.column(column).type);
  if (!key.has_value()) return std::nullopt;
  return ProbeKey{column, std::move(*key)};
}

}  // namespace

AccessPath ChooseAccessPath(const std::vector<const Expr*>& conjuncts,
                            const BoundColumns& columns, size_t base,
                            const Schema& schema) {
  AccessPath path;
  for (const Expr* c : conjuncts) {
    auto key = AbsorbEquality(c, columns, base, schema);
    if (key.has_value()) {
      path.keys.push_back(std::move(*key));
    } else {
      path.residual.push_back(c);
    }
  }
  return path;
}

namespace {

/// Matches an equi-join conjunct `x.col = y.col` where one side resolves
/// in `bound` (columns of the scans already stacked) and the other in
/// `incoming` (the scan being added). Returns (bound index, incoming
/// index) for a HashJoinNode.
struct JoinKeys {
  size_t left;   ///< Index within the accumulated (bound) tuple.
  size_t right;  ///< Index within the incoming scan's tuple.
};

std::optional<JoinKeys> MatchEquiJoin(const Expr* conjunct,
                                      const BoundColumns& bound,
                                      const BoundColumns& incoming) {
  if (conjunct->kind != ExprKind::kBinary) return std::nullopt;
  const auto& b = As<BinaryExpr>(*conjunct);
  if (b.op != BinaryOp::kEq) return std::nullopt;
  if (b.left->kind != ExprKind::kColumnRef ||
      b.right->kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  const auto& lhs = As<ColumnRefExpr>(*b.left);
  const auto& rhs = As<ColumnRefExpr>(*b.right);
  auto bl = bound.Resolve(lhs.qualifier, lhs.column);
  auto ir = incoming.Resolve(rhs.qualifier, rhs.column);
  if (bl.ok() && ir.ok()) return JoinKeys{bl.value(), ir.value()};
  auto br = bound.Resolve(rhs.qualifier, rhs.column);
  auto il = incoming.Resolve(lhs.qualifier, lhs.column);
  if (br.ok() && il.ok()) return JoinKeys{br.value(), il.value()};
  return std::nullopt;
}

}  // namespace

Result<PlannedSelect> Planner::PlanSelect(const SelectStatement& stmt) const {
  if (stmt.IsEntangled()) {
    return Status::InvalidArgument(
        "entangled queries are handled by the coordinator, not the executor");
  }
  if (stmt.from.empty() && !stmt.select_list.empty()) {
    // Constant SELECT (e.g. SELECT 1+1): plan as projection over one
    // empty row.
    PlannedSelect planned;
    planned.columns = std::make_unique<BoundColumns>();
    // A scan-less constant select is handled by the executor directly;
    // signal with a null root.
    planned.root = nullptr;
    for (const auto& e : stmt.select_list) {
      planned.column_names.push_back(ExprToName(e.get()));
    }
    return planned;
  }

  PlannedSelect planned;
  planned.columns = std::make_unique<BoundColumns>();

  // Bind every FROM entry first, so a column name that is ambiguous
  // across tables is never absorbed: it stays residual and the filter
  // reports it.
  std::vector<Schema> schemas;
  size_t base = 0;
  for (const auto& ref : stmt.from) {
    auto info = storage_->catalog().GetTable(ref.table);
    if (!info.ok()) return info.status();
    planned.columns->AddSource(ref.alias.empty() ? ref.table : ref.alias,
                               info->schema, base);
    base += info->schema.num_columns();
    schemas.push_back(std::move(info->schema));
  }

  std::unique_ptr<PlanNode> root;
  std::vector<const Expr*> residual = SplitConjuncts(stmt.where.get());
  BoundColumns stacked;  // columns of the scans already joined
  base = 0;
  for (size_t t = 0; t < stmt.from.size(); ++t) {
    const auto& ref = stmt.from[t];
    const std::string scope = ref.alias.empty() ? ref.table : ref.alias;
    AccessPath path =
        ChooseAccessPath(residual, *planned.columns, base, schemas[t]);
    residual = std::move(path.residual);
    auto scan =
        std::make_unique<ScanNode>(ref.table, std::move(path.keys), schemas[t]);

    if (!root) {
      root = std::move(scan);
    } else {
      // Prefer a hash join when a conjunct equates a column of the new
      // table with one of the already-joined tables; otherwise fall
      // back to a cross product (residual filter handles conditions).
      BoundColumns incoming;
      incoming.AddSource(scope, schemas[t], 0);
      std::optional<JoinKeys> keys;
      for (const Expr* c : residual) {
        keys = MatchEquiJoin(c, stacked, incoming);
        if (keys.has_value()) break;
      }
      if (keys.has_value()) {
        root = std::make_unique<HashJoinNode>(std::move(root),
                                              std::move(scan), keys->left,
                                              keys->right);
      } else {
        root = std::make_unique<CrossJoinNode>(std::move(root),
                                               std::move(scan));
      }
    }
    stacked.AddSource(scope, schemas[t], base);
    base += schemas[t].num_columns();
  }

  if (!residual.empty()) {
    root = std::make_unique<FilterNode>(std::move(root), std::move(residual),
                                        planned.columns.get());
  }

  // Projection. `*` expands to all bound columns.
  std::vector<const Expr*> projections;
  bool star = false;
  for (const auto& e : stmt.select_list) {
    if (e->kind == ExprKind::kColumnRef &&
        As<ColumnRefExpr>(*e).column == "*") {
      star = true;
      continue;
    }
    projections.push_back(e.get());
    planned.column_names.push_back(ExprToName(e.get()));
  }
  if (star) {
    if (!projections.empty()) {
      return Status::InvalidArgument("'*' cannot be mixed with expressions");
    }
    // Identity projection: skip the ProjectNode entirely.
    for (const auto& entry : planned.columns->entries()) {
      planned.column_names.push_back(entry.column);
    }
    planned.root = std::move(root);
    return planned;
  }

  planned.root = std::make_unique<ProjectNode>(std::move(root),
                                               std::move(projections),
                                               planned.columns.get());
  return planned;
}

}  // namespace youtopia
