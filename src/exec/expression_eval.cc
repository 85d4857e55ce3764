#include "exec/expression_eval.h"

#include "common/string_util.h"
#include "exec/executor.h"

namespace youtopia {

void BoundColumns::AddSource(const std::string& qualifier,
                             const Schema& schema, size_t base) {
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    entries_.push_back({qualifier, schema.column(i).name, base + i});
  }
}

Result<size_t> BoundColumns::Resolve(const std::string& qualifier,
                                     const std::string& column) const {
  const Entry* found = nullptr;
  for (const Entry& e : entries_) {
    if (!qualifier.empty() && !EqualsIgnoreCase(e.qualifier, qualifier)) {
      continue;
    }
    if (!EqualsIgnoreCase(e.column, column)) continue;
    if (found != nullptr) {
      return Status::InvalidArgument("ambiguous column reference: " + column);
    }
    found = &e;
  }
  if (found == nullptr) {
    std::string full = qualifier.empty() ? column : qualifier + "." + column;
    return Status::NotFound("unknown column: " + full);
  }
  return found->index;
}

Result<Value> ExpressionEvaluator::Evaluate(const Expr& expr,
                                            const Tuple* row) const {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return As<LiteralExpr>(expr).value;
    case ExprKind::kColumnRef: {
      const auto& ref = As<ColumnRefExpr>(expr);
      if (columns_ == nullptr || row == nullptr) {
        return Status::InvalidArgument("column reference " + ref.column +
                                       " in constant context");
      }
      auto idx = columns_->Resolve(ref.qualifier, ref.column);
      if (!idx.ok()) return idx.status();
      return row->at(idx.value());
    }
    case ExprKind::kUnary: {
      const auto& u = As<UnaryExpr>(expr);
      auto v = Evaluate(*u.operand, row);
      if (!v.ok()) return v.status();
      if (v->is_null()) return Value::Null();
      if (u.op == UnaryOp::kNot) {
        if (v->type() != DataType::kBool) {
          return Status::InvalidArgument("NOT requires a boolean operand");
        }
        return Value::Bool(!v->bool_value());
      }
      // Negation.
      if (v->type() == DataType::kInt64) {
        return Value::Int64(-v->int64_value());
      }
      if (v->type() == DataType::kDouble) {
        return Value::Double(-v->double_value());
      }
      return Status::InvalidArgument("unary '-' requires a numeric operand");
    }
    case ExprKind::kBinary:
      return EvaluateBinary(As<BinaryExpr>(expr), row);
    case ExprKind::kInSubquery: {
      const auto& in = As<InSubqueryExpr>(expr);
      if (executor_ == nullptr) {
        return Status::InvalidArgument("subquery in constant context");
      }
      auto needle = Evaluate(*in.needle, row);
      if (!needle.ok()) return needle.status();
      if (needle->is_null()) return Value::Null();
      auto values = executor_->EvaluateSubquery(*in.subquery, snapshot_);
      if (!values.ok()) return values.status();
      bool present = false;
      for (const Value& v : *values) {
        if (v == *needle) {
          present = true;
          break;
        }
      }
      return Value::Bool(in.negated ? !present : present);
    }
    case ExprKind::kInAnswer: {
      const auto& in = As<InAnswerExpr>(expr);
      if (executor_ == nullptr) {
        return Status::InvalidArgument("IN ANSWER in constant context");
      }
      Tuple probe;
      for (const auto& e : in.tuple) {
        auto v = Evaluate(*e, row);
        if (!v.ok()) return v.status();
        if (v->is_null()) return Value::Null();
        probe.Append(v.TakeValue());
      }
      auto present = executor_->AnswerContains(in.relation, probe, snapshot_);
      if (!present.ok()) return present.status();
      return Value::Bool(in.negated ? !present.value() : present.value());
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> ExpressionEvaluator::EvaluatePredicate(const Expr& expr,
                                                    const Tuple* row) const {
  auto v = Evaluate(expr, row);
  if (!v.ok()) return v.status();
  if (v->is_null()) return false;  // NULL is not TRUE
  if (v->type() != DataType::kBool) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v->bool_value();
}

Result<bool> ExpressionEvaluator::EvaluateConjuncts(
    const std::vector<const Expr*>& conjuncts, const Tuple* row) const {
  bool all = true;
  for (const Expr* c : conjuncts) {
    auto keep = EvaluatePredicate(*c, row);
    if (!keep.ok()) return keep.status();
    all = all && keep.value();
  }
  return all;
}

Result<Value> ExpressionEvaluator::EvaluateBinary(const BinaryExpr& expr,
                                                  const Tuple* row) const {
  // Kleene AND/OR need short-circuit-with-null handling.
  if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
    auto lhs = Evaluate(*expr.left, row);
    if (!lhs.ok()) return lhs.status();
    auto rhs = Evaluate(*expr.right, row);
    if (!rhs.ok()) return rhs.status();
    auto as_tri = [](const Value& v) -> Result<int> {
      if (v.is_null()) return -1;  // unknown
      if (v.type() != DataType::kBool) {
        return Status::InvalidArgument("AND/OR requires boolean operands");
      }
      return v.bool_value() ? 1 : 0;
    };
    auto l = as_tri(*lhs);
    if (!l.ok()) return l.status();
    auto r = as_tri(*rhs);
    if (!r.ok()) return r.status();
    if (expr.op == BinaryOp::kAnd) {
      if (l.value() == 0 || r.value() == 0) return Value::Bool(false);
      if (l.value() == -1 || r.value() == -1) return Value::Null();
      return Value::Bool(true);
    }
    if (l.value() == 1 || r.value() == 1) return Value::Bool(true);
    if (l.value() == -1 || r.value() == -1) return Value::Null();
    return Value::Bool(false);
  }

  auto lhs = Evaluate(*expr.left, row);
  if (!lhs.ok()) return lhs.status();
  auto rhs = Evaluate(*expr.right, row);
  if (!rhs.ok()) return rhs.status();

  switch (expr.op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLte:
    case BinaryOp::kGt:
    case BinaryOp::kGte:
      return EvaluateComparison(expr.op, *lhs, *rhs);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return EvaluateArithmetic(expr.op, *lhs, *rhs);
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<Value> ExpressionEvaluator::EvaluateComparison(BinaryOp op,
                                                      const Value& lhs,
                                                      const Value& rhs) const {
  return CompareValues(op, lhs, rhs);
}

Result<Value> CompareValues(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  // Numeric comparison across int64/double; otherwise types must match.
  const bool numeric =
      (lhs.type() == DataType::kInt64 || lhs.type() == DataType::kDouble) &&
      (rhs.type() == DataType::kInt64 || rhs.type() == DataType::kDouble);
  if (!numeric && lhs.type() != rhs.type()) {
    return Status::InvalidArgument(
        "cannot compare " + std::string(DataTypeToString(lhs.type())) +
        " with " + DataTypeToString(rhs.type()));
  }

  int cmp;  // -1, 0, 1
  if (numeric && (lhs.type() == DataType::kDouble ||
                  rhs.type() == DataType::kDouble)) {
    const double a = lhs.AsDouble().value();
    const double b = rhs.AsDouble().value();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.type() == DataType::kInt64) {
    const int64_t a = lhs.int64_value();
    const int64_t b = rhs.int64_value();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.type() == DataType::kString) {
    cmp = lhs.string_value().compare(rhs.string_value());
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  } else {  // bool
    const int a = lhs.bool_value() ? 1 : 0;
    const int b = rhs.bool_value() ? 1 : 0;
    cmp = a - b;
  }

  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(cmp == 0);
    case BinaryOp::kNeq:
      return Value::Bool(cmp != 0);
    case BinaryOp::kLt:
      return Value::Bool(cmp < 0);
    case BinaryOp::kLte:
      return Value::Bool(cmp <= 0);
    case BinaryOp::kGt:
      return Value::Bool(cmp > 0);
    case BinaryOp::kGte:
      return Value::Bool(cmp >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> ExpressionEvaluator::EvaluateArithmetic(BinaryOp op,
                                                      const Value& lhs,
                                                      const Value& rhs) const {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  // String concatenation via '+' (used to build display names).
  if (op == BinaryOp::kAdd && lhs.type() == DataType::kString &&
      rhs.type() == DataType::kString) {
    return Value::String(lhs.string_value() + rhs.string_value());
  }

  if (lhs.type() == DataType::kInt64 && rhs.type() == DataType::kInt64) {
    const int64_t a = lhs.int64_value();
    const int64_t b = rhs.int64_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(a + b);
      case BinaryOp::kSub:
        return Value::Int64(a - b);
      case BinaryOp::kMul:
        return Value::Int64(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Int64(a / b);
      default:
        break;
    }
  }
  auto a = lhs.AsDouble();
  if (!a.ok()) {
    return Status::InvalidArgument("arithmetic requires numeric operands, got " +
                                   lhs.ToString());
  }
  auto b = rhs.AsDouble();
  if (!b.ok()) {
    return Status::InvalidArgument("arithmetic requires numeric operands, got " +
                                   rhs.ToString());
  }
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(a.value() + b.value());
    case BinaryOp::kSub:
      return Value::Double(a.value() - b.value());
    case BinaryOp::kMul:
      return Value::Double(a.value() * b.value());
    case BinaryOp::kDiv:
      if (b.value() == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      return Value::Double(a.value() / b.value());
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<bool> CompareValuesBool(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  auto v = CompareValues(op, lhs, rhs);
  if (!v.ok()) return v.status();
  if (v->is_null()) return false;
  return v->bool_value();
}

Result<Value> EvaluateConstant(const Expr& expr) {
  ExpressionEvaluator eval(nullptr, nullptr);
  return eval.Evaluate(expr, nullptr);
}

}  // namespace youtopia
