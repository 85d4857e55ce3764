#ifndef YOUTOPIA_EXEC_PLAN_H_
#define YOUTOPIA_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expression_eval.h"
#include "storage/storage_engine.h"

namespace youtopia {

class Executor;

/// Execution context threaded through a plan tree.
struct ExecContext {
  StorageEngine* storage = nullptr;
  /// Back-reference for subquery / IN ANSWER evaluation inside predicates.
  Executor* executor = nullptr;
  /// MVCC read timestamp: every scan, index probe and predicate
  /// subquery in the tree resolves visibility at this instant. 0 =
  /// current reads (head versions, pending included).
  Ts snapshot = 0;
};

/// A physical plan operator. Operators materialize their output — the
/// engine is in-memory and demo-scale, so the simplicity of full
/// materialization wins over iterator plumbing.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  virtual Result<std::vector<Tuple>> Execute(ExecContext& ctx) const = 0;

  /// One-line operator description, e.g. "Scan(Flights)". The admin
  /// interface prints plan trees via ToStringTree.
  virtual std::string ToString() const = 0;

  /// Indented rendering of this subtree.
  std::string ToStringTree(int indent = 0) const;

  const std::vector<std::unique_ptr<PlanNode>>& children() const {
    return children_;
  }

 protected:
  std::vector<std::unique_ptr<PlanNode>> children_;
};

/// Access-path leaf: the rows of `table` holding every probe key,
/// through StorageEngine::Probe (which picks the index at execution
/// time). No keys = every row.
class ScanNode : public PlanNode {
 public:
  /// `schema` names the key columns in ToString.
  ScanNode(std::string table, std::vector<ProbeKey> keys,
           const Schema& schema);
  Result<std::vector<Tuple>> Execute(ExecContext& ctx) const override;
  std::string ToString() const override { return label_; }

 private:
  std::string table_;
  std::vector<ProbeKey> keys_;
  std::string label_;
};

/// Cartesian product (conditions are applied by an enclosing Filter).
class CrossJoinNode : public PlanNode {
 public:
  CrossJoinNode(std::unique_ptr<PlanNode> left,
                std::unique_ptr<PlanNode> right) {
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }
  Result<std::vector<Tuple>> Execute(ExecContext& ctx) const override;
  std::string ToString() const override { return "CrossJoin"; }
};

/// Equi-join on one column pair, build side = left.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(std::unique_ptr<PlanNode> left, std::unique_ptr<PlanNode> right,
               size_t left_key, size_t right_key)
      : left_key_(left_key), right_key_(right_key) {
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }
  Result<std::vector<Tuple>> Execute(ExecContext& ctx) const override;
  std::string ToString() const override {
    return "HashJoin(left[" + std::to_string(left_key_) + "] = right[" +
           std::to_string(right_key_) + "])";
  }

 private:
  size_t left_key_;
  size_t right_key_;
};

/// Keeps rows where every conjunct evaluates to TRUE.
class FilterNode : public PlanNode {
 public:
  FilterNode(std::unique_ptr<PlanNode> child,
             std::vector<const Expr*> conjuncts, const BoundColumns* columns)
      : conjuncts_(std::move(conjuncts)), columns_(columns) {
    children_.push_back(std::move(child));
  }
  Result<std::vector<Tuple>> Execute(ExecContext& ctx) const override;
  std::string ToString() const override;

 private:
  std::vector<const Expr*> conjuncts_;  ///< Owned by the statement AST.
  const BoundColumns* columns_;         ///< Owned by the PlannedSelect.
};

/// Evaluates the projection expressions for each input row.
class ProjectNode : public PlanNode {
 public:
  ProjectNode(std::unique_ptr<PlanNode> child,
              std::vector<const Expr*> exprs, const BoundColumns* columns)
      : exprs_(std::move(exprs)), columns_(columns) {
    children_.push_back(std::move(child));
  }
  Result<std::vector<Tuple>> Execute(ExecContext& ctx) const override;
  std::string ToString() const override {
    return "Project(" + std::to_string(exprs_.size()) + " exprs)";
  }

 private:
  std::vector<const Expr*> exprs_;
  const BoundColumns* columns_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_EXEC_PLAN_H_
