#include "exec/plan.h"

#include <unordered_map>

#include "common/string_util.h"
#include "sql/unparser.h"

namespace youtopia {

std::string PlanNode::ToStringTree(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += ToString();
  out += "\n";
  for (const auto& child : children_) {
    out += child->ToStringTree(indent + 1);
  }
  return out;
}

ScanNode::ScanNode(std::string table, std::vector<ProbeKey> keys,
                   const Schema& schema)
    : table_(std::move(table)), keys_(std::move(keys)) {
  std::vector<std::string> terms;
  for (const ProbeKey& key : keys_) {
    terms.push_back(schema.column(key.column).name + " = " +
                    key.value.ToString());
  }
  label_ = "Scan(" + table_ + (terms.empty() ? "" : ": ") +
           JoinStrings(terms, " AND ") + ")";
}

Result<std::vector<Tuple>> ScanNode::Execute(ExecContext& ctx) const {
  auto rows = ctx.storage->Probe(table_, keys_, ctx.snapshot);
  if (!rows.ok()) return rows.status();
  std::vector<Tuple> out;
  out.reserve(rows->size());
  for (auto& row : *rows) out.push_back(std::move(row.second));
  return out;
}

Result<std::vector<Tuple>> CrossJoinNode::Execute(ExecContext& ctx) const {
  auto left = children_[0]->Execute(ctx);
  if (!left.ok()) return left.status();
  auto right = children_[1]->Execute(ctx);
  if (!right.ok()) return right.status();
  std::vector<Tuple> out;
  out.reserve(left->size() * right->size());
  for (const Tuple& l : *left) {
    for (const Tuple& r : *right) {
      out.push_back(l.Concat(r));
    }
  }
  return out;
}

Result<std::vector<Tuple>> HashJoinNode::Execute(ExecContext& ctx) const {
  auto left = children_[0]->Execute(ctx);
  if (!left.ok()) return left.status();
  auto right = children_[1]->Execute(ctx);
  if (!right.ok()) return right.status();

  std::unordered_map<Value, std::vector<const Tuple*>, ValueHash> build;
  for (const Tuple& l : *left) {
    if (left_key_ >= l.size()) {
      return Status::Internal("hash join key out of range on build side");
    }
    build[l.at(left_key_)].push_back(&l);
  }
  std::vector<Tuple> out;
  for (const Tuple& r : *right) {
    if (right_key_ >= r.size()) {
      return Status::Internal("hash join key out of range on probe side");
    }
    auto it = build.find(r.at(right_key_));
    if (it == build.end()) continue;
    for (const Tuple* l : it->second) {
      out.push_back(l->Concat(r));
    }
  }
  return out;
}

Result<std::vector<Tuple>> FilterNode::Execute(ExecContext& ctx) const {
  auto input = children_[0]->Execute(ctx);
  if (!input.ok()) return input.status();
  ExpressionEvaluator eval(columns_, ctx.executor, ctx.snapshot);
  std::vector<Tuple> out;
  for (Tuple& row : *input) {
    auto keep = eval.EvaluateConjuncts(conjuncts_, &row);
    if (!keep.ok()) return keep.status();
    if (keep.value()) out.push_back(std::move(row));
  }
  return out;
}

std::string FilterNode::ToString() const {
  std::vector<std::string> terms;
  for (const Expr* c : conjuncts_) {
    const bool is_or = c->kind == ExprKind::kBinary &&
                       As<BinaryExpr>(*c).op == BinaryOp::kOr;
    terms.push_back(is_or ? "(" + ExprToSql(*c) + ")" : ExprToSql(*c));
  }
  return "Filter(" + JoinStrings(terms, " AND ") + ")";
}

Result<std::vector<Tuple>> ProjectNode::Execute(ExecContext& ctx) const {
  auto input = children_[0]->Execute(ctx);
  if (!input.ok()) return input.status();
  ExpressionEvaluator eval(columns_, ctx.executor, ctx.snapshot);
  std::vector<Tuple> out;
  out.reserve(input->size());
  for (const Tuple& row : *input) {
    Tuple projected;
    for (const Expr* e : exprs_) {
      auto v = eval.Evaluate(*e, &row);
      if (!v.ok()) return v.status();
      projected.Append(v.TakeValue());
    }
    out.push_back(std::move(projected));
  }
  return out;
}

}  // namespace youtopia
