#ifndef YOUTOPIA_EXEC_PLANNER_H_
#define YOUTOPIA_EXEC_PLANNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/plan.h"
#include "sql/ast.h"

namespace youtopia {

/// A planned regular SELECT: the physical tree plus the name-resolution
/// table it references and the output column names. The plan borrows
/// expression nodes from the statement, so the SelectStatement must
/// outlive execution.
struct PlannedSelect {
  std::unique_ptr<PlanNode> root;
  std::unique_ptr<BoundColumns> columns;
  std::vector<std::string> column_names;
};

/// Translates regular SELECT ASTs to physical plans: one ScanNode per
/// FROM table carrying that table's absorbable `col = literal` conjuncts
/// (ChooseAccessPath), hash or cross joins between them, a filter over
/// the residual conjuncts, then the projection.
class Planner {
 public:
  explicit Planner(const StorageEngine* storage) : storage_(storage) {}

  /// Fails with InvalidArgument for entangled statements — those go to
  /// the coordination component, not the executor.
  Result<PlannedSelect> PlanSelect(const SelectStatement& stmt) const;

 private:
  const StorageEngine* storage_;
};

/// Splits a predicate into top-level AND conjuncts (borrowed pointers).
std::vector<const Expr*> SplitConjuncts(const Expr* predicate);

/// `literal` as a probe key for a column of `type`, or nullopt when Value
/// identity could disagree with SQL `=`: a NULL literal (which `=` never
/// matches) or one that does not convert losslessly to `type`.
std::optional<Value> ProbeKeyFor(const Value& literal, DataType type);

/// The conjuncts a StorageEngine::Probe of one table answers, as keys,
/// and the rest, which the evaluator must still check.
struct AccessPath {
  std::vector<ProbeKey> keys;
  std::vector<const Expr*> residual;
};

/// Absorbs each `col = literal` conjunct (either side) whose column
/// resolves unambiguously in `columns` to the table bound at `base` with
/// `schema`, and whose literal ProbeKeyFor accepts.
AccessPath ChooseAccessPath(const std::vector<const Expr*>& conjuncts,
                            const BoundColumns& columns, size_t base,
                            const Schema& schema);

}  // namespace youtopia

#endif  // YOUTOPIA_EXEC_PLANNER_H_
