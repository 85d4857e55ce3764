#ifndef YOUTOPIA_EXEC_EXPRESSION_EVAL_H_
#define YOUTOPIA_EXEC_EXPRESSION_EVAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "txn/mvcc.h"
#include "types/tuple.h"

namespace youtopia {

class Executor;

/// Column-name resolution table for one query scope: maps
/// (qualifier, column) pairs to positions in the combined input tuple.
class BoundColumns {
 public:
  /// Adds all columns of `schema` under `qualifier` (alias or table name),
  /// offset by `base` in the combined tuple.
  void AddSource(const std::string& qualifier, const Schema& schema,
                 size_t base);

  /// Resolves a reference. Unqualified names search all sources;
  /// ambiguity is an error. NotFound if absent.
  Result<size_t> Resolve(const std::string& qualifier,
                         const std::string& column) const;

  /// All entries in declaration order (for `*` expansion).
  struct Entry {
    std::string qualifier;
    std::string column;
    size_t index;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Evaluates expression trees over a row, with SQL three-valued logic:
/// comparisons against NULL yield NULL; AND/OR follow Kleene semantics;
/// a filter accepts a row only when the predicate is exactly TRUE.
///
/// `executor` (optional) services `IN (SELECT ...)` subqueries and
/// `IN ANSWER R` membership tests against the stored answer relation —
/// the latter is what lets users *browse* coordinated bookings with
/// regular queries (paper §3.1, the browse-then-book path).
class ExpressionEvaluator {
 public:
  /// `snapshot` (optional) is the MVCC read timestamp subqueries and
  /// IN ANSWER probes resolve at, so every read inside one snapshot
  /// SELECT observes the same instant. 0 = current reads.
  ExpressionEvaluator(const BoundColumns* columns, Executor* executor,
                      Ts snapshot = 0)
      : columns_(columns), executor_(executor), snapshot_(snapshot) {}

  /// Evaluates `expr` against `row` (may be null for constant folding).
  Result<Value> Evaluate(const Expr& expr, const Tuple* row) const;

  /// Evaluates as a filter predicate: true iff result is TRUE.
  Result<bool> EvaluatePredicate(const Expr& expr, const Tuple* row) const;

  /// The AND of `conjuncts` as a filter: true iff every one is TRUE. Like
  /// the AND operator, evaluates them all, so an error in any surfaces.
  Result<bool> EvaluateConjuncts(const std::vector<const Expr*>& conjuncts,
                                 const Tuple* row) const;

 private:
  Result<Value> EvaluateBinary(const BinaryExpr& expr, const Tuple* row) const;
  Result<Value> EvaluateComparison(BinaryOp op, const Value& lhs,
                                   const Value& rhs) const;
  Result<Value> EvaluateArithmetic(BinaryOp op, const Value& lhs,
                                   const Value& rhs) const;

  const BoundColumns* columns_;  ///< May be null (constants only).
  Executor* executor_;           ///< May be null (no subqueries).
  Ts snapshot_;                  ///< 0 = current reads.
};

/// Convenience: evaluates an expression that must be constant (INSERT
/// values). Errors on column references or subqueries.
Result<Value> EvaluateConstant(const Expr& expr);

/// SQL comparison over two values, shared by the evaluator and the
/// entangled-query matcher. NULL operands yield NULL.
Result<Value> CompareValues(BinaryOp op, const Value& lhs, const Value& rhs);

/// Comparison folded to a filter decision: true iff result is TRUE.
Result<bool> CompareValuesBool(BinaryOp op, const Value& lhs,
                               const Value& rhs);

}  // namespace youtopia

#endif  // YOUTOPIA_EXEC_EXPRESSION_EVAL_H_
