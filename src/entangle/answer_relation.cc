#include "entangle/answer_relation.h"

#include "common/string_util.h"

namespace youtopia {

Status AnswerRelationManager::EnsureRelation(const std::string& relation,
                                             const Tuple& prototype) {
  auto info = storage_->catalog().GetTable(relation);
  if (info.ok()) {
    if (info->schema.num_columns() != prototype.size()) {
      return Status::InvalidArgument(StringPrintf(
          "answer relation %s has %zu columns but the coordinated answer "
          "has %zu values",
          relation.c_str(), info->schema.num_columns(), prototype.size()));
    }
    return Status::OK();
  }
  if (!auto_create_) {
    return Status::NotFound("answer relation " + relation +
                            " does not exist and auto-create is disabled");
  }
  std::vector<Column> columns;
  columns.reserve(prototype.size());
  for (size_t i = 0; i < prototype.size(); ++i) {
    DataType type = prototype.at(i).type();
    if (type == DataType::kNull) type = DataType::kString;
    columns.push_back({"c" + std::to_string(i), type, /*nullable=*/true});
  }
  auto schema = Schema::Create(std::move(columns));
  if (!schema.ok()) return schema.status();
  return storage_->CreateTable(relation, schema.TakeValue());
}

Status AnswerRelationManager::Install(Transaction* txn,
                                      TxnManager* txn_manager,
                                      const std::string& relation,
                                      const Tuple& tuple) {
  YOUTOPIA_RETURN_IF_ERROR(EnsureRelation(relation, tuple));
  // Set semantics: skip if the exact tuple is already present. The
  // check runs under the transaction's lock, so no duplicate can sneak
  // in. Every column is a probe key, so an index on the relation keeps
  // installation from going quadratic as the relation grows.
  std::vector<ProbeKey> keys;
  for (size_t i = 0; i < tuple.size(); ++i) keys.push_back({i, tuple.at(i)});
  auto existing = txn_manager->Probe(txn, relation, keys);
  if (!existing.ok()) return existing.status();
  if (!existing->empty()) return Status::OK();
  auto rid = txn_manager->Insert(txn, relation, tuple);
  if (!rid.ok()) return rid.status();
  return Status::OK();
}

}  // namespace youtopia
