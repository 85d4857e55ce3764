#include "server/youtopia.h"

#include <algorithm>

#include "common/logging.h"
#include "service/executor_service.h"
#include "sql/table_refs.h"
#include "wal/recovery.h"
#include "wal/wal_journal.h"

namespace youtopia {

namespace {

/// The acquire-locks + execute stages for one regular statement, under
/// an auto-commit transaction that holds S locks on read tables and X
/// locks on written tables for the statement's duration. This is what
/// makes regular queries observe coordination installs atomically
/// (reservations appear group-at-a-time, never half a pair).
///
/// The cached physical plan (when the statement carries one) executes
/// only if its table-version stamps are still current, and that check
/// happens *after* the locks are acquired: DDL takes no 2PL locks, so
/// a blocking lock wait can span a whole drop/recreate — a version
/// check done before the wait could admit a plan whose column bindings
/// no longer match the table. Checked under the locks, the stale plan
/// degrades to the seed path (the executor re-plans right here),
/// leaving exactly the seed's residual DDL-vs-DML exposure and nothing
/// more.
///
/// `LockWait::kBlock` waits inside the lock manager (surfacing
/// kTimedOut after its deadline — possible deadlock); `LockWait::kTry`
/// fails the acquire stage immediately on conflict so a pool worker can
/// requeue the statement instead of sleeping. Either way a failed
/// acquire aborts the transaction, so no locks leak and the statement
/// has no side effects — it is safe to re-drive.
/// When `wal` is non-null, every successful non-SELECT statement is
/// journaled as a command-log record (its SQL text; replay re-executes
/// it). The append happens *before* Commit releases the 2PL locks, so
/// log order is a valid serialization order for DML. DDL takes no 2PL
/// locks at all, so it goes through AppendSerialized instead: execution
/// and append run atomically under the log mutex, the only exclusion
/// that can keep its log position consistent with its execution order.
/// Appends only buffer — the caller syncs at its acknowledgment point,
/// `*logged_lsn` says up to where.
Result<QueryResult> ExecuteLocked(Executor* executor, TxnManager* txns,
                                  const Catalog& catalog,
                                  const PreparedStatement& prepared,
                                  LockWait lock_wait, bool* lock_conflict,
                                  wal::WalManager* wal,
                                  wal::Lsn* logged_lsn) {
  const Statement& stmt = *prepared.stmt;
  const TableRefs& refs = prepared.refs;
  if (stmt.kind == StatementKind::kSelect && refs.writes.empty()) {
    // The browse path (design decision #10): a regular SELECT takes
    // *no locks at all* — no transaction, no S locks, no
    // lock-manager traffic. It opens a snapshot at the current
    // watermark and resolves every scan, index probe and subquery at
    // that timestamp; writers stamp their versions at commit, so the
    // snapshot observes each transaction (and each coordination
    // install) entirely or not at all. `lock_conflict` can never fire
    // here and SELECTs are never journaled, so neither out-parameter is
    // touched. Plan freshness is checked without locks: the same
    // residual DDL-vs-read exposure as the seed (DDL takes no 2PL locks
    // either way), with a stale plan degrading to re-plan-and-execute.
    SnapshotHandle snapshot = txns->OpenSnapshot();
    const auto& select = static_cast<const SelectStatement&>(stmt);
    return prepared.plan.has_value() && PreparedStatementFresh(prepared, catalog)
               ? executor->ExecutePlanned(select, *prepared.plan,
                                          snapshot.ts())
               : executor->ExecuteSelect(select, snapshot.ts());
  }
  const bool journal =
      wal != nullptr && stmt.kind != StatementKind::kSelect;
  auto txn = txns->Begin();

  if (journal && refs.writes.empty()) {
    // No write footprint + not a SELECT = DDL (CollectTableRefs reports
    // no refs for schema statements).
    QueryResult ddl_result;
    auto lsn = wal->AppendSerialized(
        [&]() -> Status {
          auto result = executor->Execute(stmt);
          if (!result.ok()) return result.status();
          ddl_result = result.TakeValue();
          return Status::OK();
        },
        wal::WalRecord::Statement(prepared.sql));
    (void)txns->Commit(txn.get());
    if (!lsn.ok()) return lsn.status();
    *logged_lsn = *lsn;
    return ddl_result;
  }
  auto acquire = [&](const std::string& table, LockMode mode) {
    return lock_wait == LockWait::kBlock
               ? txns->lock_manager().Acquire(txn->id(), table, mode)
               : txns->lock_manager().TryAcquire(txn->id(), table, mode);
  };
  auto acquire_failed = [&](Status s) {
    // Nothing has executed: aborting releases the partial lock set and
    // leaves the statement safe to re-drive.
    (void)txns->Abort(txn.get());
    if (lock_conflict != nullptr && s.code() == StatusCode::kTimedOut) {
      *lock_conflict = true;
    }
    return s;
  };
  // std::set iteration is sorted, giving a global acquisition order
  // that avoids lock-order deadlocks between regular statements.
  for (const std::string& table : refs.writes) {
    Status s = acquire(table, LockMode::kExclusive);
    if (!s.ok()) return acquire_failed(std::move(s));
  }
  for (const std::string& table : refs.reads) {
    if (refs.writes.count(table) > 0) continue;
    Status s = acquire(table, LockMode::kShared);
    if (!s.ok()) return acquire_failed(std::move(s));
  }
  const PlannedSelect* plan =
      prepared.plan.has_value() && PreparedStatementFresh(prepared, catalog)
          ? &*prepared.plan
          : nullptr;
  // The statement's writes are tagged with the surrounding lock-holding
  // transaction: they enter storage as *pending* versions, invisible to
  // every snapshot, and Commit below stamps them all with one timestamp
  // — a multi-row UPDATE (or a coordination install) becomes visible to
  // lock-free readers atomically, never row by row.
  auto result =
      plan != nullptr
          ? executor->ExecutePlanned(static_cast<const SelectStatement&>(stmt),
                                     *plan)
          : executor->Execute(stmt, txn->id());
  if (result.ok() && journal) {
    // Append while still holding the write locks: no conflicting
    // statement can slip between this record and its effects, so log
    // order = lock order = a valid serialization. Failed statements
    // are not journaled (they are not acknowledged as durable either).
    auto lsn = wal->Append(wal::WalRecord::Statement(prepared.sql));
    if (!lsn.ok()) {
      (void)txns->Commit(txn.get());
      return lsn.status();
    }
    *logged_lsn = *lsn;
  }
  // The executor applied changes directly to storage; the transaction
  // only held the locks. Commit releases them.
  (void)txns->Commit(txn.get());
  return result;
}

}  // namespace

bool PreparedStatementFresh(const PreparedStatement& prepared,
                            const Catalog& catalog) {
  for (const auto& [table, version] : prepared.table_versions) {
    if (catalog.TableVersion(table) != version) return false;
  }
  return true;
}

Youtopia::Youtopia(YoutopiaConfig config)
    : config_(config),
      executor_(&storage_),
      txn_manager_(&storage_),
      coordinator_(&storage_, &txn_manager_, config.coordinator),
      plan_cache_(config.plan_cache.capacity),
      executor_service_(
          std::make_unique<ExecutorService>(this, config.executor)) {
  if (config_.wal.enabled) {
    wal_ = std::make_unique<wal::WalManager>(config_.wal);
    recovery_status_ = RecoverFromWal();
    if (!recovery_status_.ok()) {
      YOUTOPIA_LOG(kError) << "WAL recovery failed: "
                           << recovery_status_.ToString();
    }
  }
}

Youtopia::~Youtopia() {
  // Join the workers before the final checkpoint so no statement is
  // mid-flight while the snapshot is taken.
  executor_service_.reset();
  if (wal_ != nullptr && recovery_status_.ok() && !wal_->crashed()) {
    Status final = config_.wal.checkpoint_on_shutdown
                       ? Checkpoint()
                       : wal_->SyncAll();
    if (!final.ok()) {
      YOUTOPIA_LOG(kWarning) << "WAL shutdown flush failed: "
                             << final.ToString();
    }
  }
}

Status Youtopia::RecoverFromWal() {
  YOUTOPIA_RETURN_IF_ERROR(wal_->Open());
  wal::RecoveryResult recovered;
  YOUTOPIA_RETURN_IF_ERROR(
      wal::Recover(wal_.get(), &storage_, &executor_, &recovered));
  YOUTOPIA_RETURN_IF_ERROR(wal_->OpenForAppend());

  // Re-register the coordinations that were pending at the crash,
  // original ids preserved, by re-normalizing their logged SQL — the
  // schema they reference was just replayed, so normalization sees the
  // same catalog the original submission did.
  for (const wal::CheckpointPending& p : recovered.pending) {
    auto stmt = Parser::ParseStatement(p.sql);
    if (!stmt.ok()) return stmt.status();
    if ((*stmt)->kind != StatementKind::kSelect) {
      return Status::Internal("journaled pending query " +
                              std::to_string(p.query_id) +
                              " is not a SELECT: " + p.sql);
    }
    const auto& select = static_cast<const SelectStatement&>(**stmt);
    auto query = Normalizer::Normalize(select, p.query_id, p.owner, p.sql);
    if (!query.ok()) return query.status();
    YOUTOPIA_RETURN_IF_ERROR(coordinator_.RestorePending(query.TakeValue()));
  }
  coordinator_.SeedNextQueryId(recovered.next_query_id);

  // Journal from here on: a retrigger below may close a group that only
  // became matchable across the restart, and its install must be logged
  // like any other.
  journal_ = std::make_unique<wal::WalCoordinatorJournal>(wal_.get());
  coordinator_.SetJournal(journal_.get());
  auto retriggered = coordinator_.RetriggerAll();
  if (!retriggered.ok()) return retriggered.status();
  YOUTOPIA_RETURN_IF_ERROR(wal_->SyncAll());
  if (wal_->ShouldCheckpoint()) {
    YOUTOPIA_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status Youtopia::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("WAL is not enabled");
  }
  return coordinator_.WithQuiescedPending(
      [&](const std::vector<PendingQueryInfo>& pending,
          QueryId next_id) -> Status {
        // The coordinator mutex quiesces the coordinator (no install can
        // run); S locks on every table drain regular DML — a writer
        // holds its locks only for the statement's duration and never
        // blocks on the coordinator mutex while holding them, so this cannot
        // deadlock. Sorted acquisition mirrors the statement path.
        auto txn = txn_manager_.Begin();
        std::vector<TableInfo> tables = storage_.catalog().ListTables();
        std::sort(tables.begin(), tables.end(),
                  [](const TableInfo& a, const TableInfo& b) {
                    return a.name < b.name;
                  });
        for (const TableInfo& table : tables) {
          Status s = txn_manager_.lock_manager().Acquire(
              txn->id(), table.name, LockMode::kShared);
          if (!s.ok()) {
            (void)txn_manager_.Abort(txn.get());
            return s;
          }
        }

        wal::CheckpointState state;
        state.next_query_id = next_id;
        state.tables.reserve(tables.size());
        Status built = Status::OK();
        for (const TableInfo& table : tables) {
          wal::CheckpointTable snapshot;
          snapshot.name = table.name;
          snapshot.schema = table.schema;
          for (size_t column : table.indexed_columns) {
            snapshot.indexed_columns.push_back(
                table.schema.columns()[column].name);
          }
          auto slots = storage_.TableSlotCount(table.name);
          if (!slots.ok()) {
            built = slots.status();
            break;
          }
          snapshot.slot_count = slots.value();
          auto rows = storage_.Scan(table.name);
          if (!rows.ok()) {
            built = rows.status();
            break;
          }
          snapshot.rows = rows.TakeValue();
          state.tables.push_back(std::move(snapshot));
        }
        if (built.ok()) {
          state.pending.reserve(pending.size());
          for (const PendingQueryInfo& info : pending) {
            state.pending.push_back(
                wal::CheckpointPending{info.id, info.owner, info.sql});
          }
          built = wal_->WriteCheckpoint(std::move(state));
        }
        (void)txn_manager_.Commit(txn.get());
        return built;
      });
}

void Youtopia::MaybeAutoCheckpoint() {
  if (wal_ == nullptr || !wal_->ShouldCheckpoint()) return;
  if (checkpoint_inflight_.exchange(true)) return;  // one at a time
  Status s = Checkpoint();
  checkpoint_inflight_.store(false);
  if (!s.ok()) {
    YOUTOPIA_LOG(kWarning) << "automatic checkpoint failed: "
                           << s.ToString();
  }
}

Result<PreparedStatementPtr> Youtopia::PrepareParsed(StatementPtr stmt,
                                                     std::string sql) const {
  auto prepared = std::make_shared<PreparedStatement>();
  // Stamp *before* reading any other catalog state: a DDL racing with
  // the plan build bumps the versions after this read, so the stamps
  // can only err stale (entry discarded although valid), never fresh
  // (stale plan served). The footprint itself is pure AST, so it is
  // safe to collect it first to learn which tables to stamp.
  prepared->stmt = std::shared_ptr<const Statement>(std::move(stmt));
  prepared->refs = CollectTableRefs(*prepared->stmt);
  prepared->catalog_version = storage_.catalog().version();
  for (const std::string& table : prepared->refs.writes) {
    prepared->table_versions.emplace_back(
        table, storage_.catalog().TableVersion(table));
  }
  for (const std::string& table : prepared->refs.reads) {
    if (prepared->refs.writes.count(table) > 0) continue;
    prepared->table_versions.emplace_back(
        table, storage_.catalog().TableVersion(table));
  }
  prepared->entangled =
      prepared->stmt->kind == StatementKind::kSelect &&
      static_cast<const SelectStatement&>(*prepared->stmt).IsEntangled();
  prepared->sql = std::move(sql);
  if (prepared->stmt->kind == StatementKind::kSelect && !prepared->entangled) {
    // Regular SELECTs are planned here, ahead of locks, so repeated
    // submissions skip the planner entirely on a cache hit. Other
    // statement kinds resolve the catalog at execution (unchanged).
    auto plan = executor_.Plan(
        static_cast<const SelectStatement&>(*prepared->stmt));
    if (!plan.ok()) return plan.status();
    prepared->plan.emplace(plan.TakeValue());
  }
  return PreparedStatementPtr(std::move(prepared));
}

Result<PreparedStatementPtr> Youtopia::PrepareParsedCached(
    StatementPtr stmt, std::string text) const {
  if (!plan_cache_.enabled() || !PlanCache::Cacheable(*stmt)) {
    return PrepareParsed(std::move(stmt), std::move(text));
  }
  const std::string key = PlanCache::NormalizeKey(text);
  if (auto hit = plan_cache_.Lookup(key, storage_.catalog())) {
    return hit;
  }
  auto prepared = PrepareParsed(std::move(stmt), std::move(text));
  if (prepared.ok()) {
    plan_cache_.Insert(key, *prepared);
  }
  return prepared;
}

Result<PreparedStatementPtr> Youtopia::Prepare(const std::string& sql) const {
  std::string key;
  if (plan_cache_.enabled()) {
    key = PlanCache::NormalizeKey(sql);
    if (auto hit = plan_cache_.Lookup(key, storage_.catalog())) {
      return hit;
    }
  }
  auto stmt = Parser::ParseStatement(sql);
  if (!stmt.ok()) return stmt.status();
  const bool cacheable = PlanCache::Cacheable(**stmt);
  auto prepared = PrepareParsed(std::move(stmt.value()), sql);
  if (plan_cache_.enabled() && cacheable && prepared.ok()) {
    plan_cache_.Insert(key, *prepared);
  }
  return prepared;
}

Result<QueryResult> Youtopia::ExecutePrepared(const PreparedStatement& prepared,
                                              LockWait lock_wait,
                                              bool* lock_conflict) {
  if (prepared.stmt == nullptr) {
    return Status::InvalidArgument("empty prepared statement");
  }
  if (prepared.entangled) {
    return Status::InvalidArgument(
        "entangled query submitted to Execute(); use Submit() or Run()");
  }
  wal::Lsn logged = 0;
  auto result = ExecuteLocked(&executor_, &txn_manager_, storage_.catalog(),
                              prepared, lock_wait, lock_conflict,
                              wal_.get(), &logged);
  if (!result.ok()) return result;
  if (config_.retrigger_on_dml && result->affected_rows > 0 &&
      coordinator_.pending_count() > 0) {
    for (const std::string& table : prepared.refs.writes) {
      auto retriggered = coordinator_.RetriggerDependentsOf(table);
      if (!retriggered.ok()) return retriggered.status();
    }
  }
  if (logged != 0) {
    // Acknowledgment point: the statement (and any install records a
    // retrigger above appended) must be on disk before this returns.
    // With group commit, concurrent sessions land here together and
    // one leader fsyncs for all of them.
    YOUTOPIA_RETURN_IF_ERROR(wal_->SyncAll());
    MaybeAutoCheckpoint();
  }
  return result;
}

Result<EntangledHandle> Youtopia::SubmitPrepared(
    const PreparedStatement& prepared, const std::string& owner) {
  if (prepared.stmt == nullptr) {
    return Status::InvalidArgument("empty prepared statement");
  }
  if (!prepared.entangled || prepared.stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("not an entangled SELECT statement");
  }
  const auto& select = static_cast<const SelectStatement&>(*prepared.stmt);
  auto query = Normalizer::Normalize(select, /*id=*/0, owner, prepared.sql);
  if (!query.ok()) return query.status();
  auto handle = coordinator_.Submit(query.TakeValue());
  if (handle.ok() && wal_ != nullptr) {
    // The submit record — and the install record, if this submission
    // closed a group — must be durable before the handle is returned.
    YOUTOPIA_RETURN_IF_ERROR(wal_->SyncAll());
    MaybeAutoCheckpoint();
  }
  return handle;
}

Result<QueryResult> Youtopia::Execute(const std::string& sql) {
  auto prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  return ExecutePrepared(**prepared, LockWait::kBlock);
}

Status Youtopia::ExecuteScript(const std::string& sql) {
  // Parsing stays all-or-nothing (a syntax error anywhere rejects the
  // script before anything executes), but each statement is *prepared*
  // only when reached: planning consults the catalog, so a statement
  // referencing a table an earlier script statement creates must not be
  // planned before that statement runs. The executor service's script
  // tasks drive the identical per-step path, so the two cannot diverge.
  auto parts = Parser::ParseScriptParts(sql);
  if (!parts.ok()) return parts.status();
  for (auto& part : *parts) {
    auto prepared = PrepareParsedCached(std::move(part.stmt),
                                        std::move(part.text));
    if (!prepared.ok()) return prepared.status();
    auto result = ExecutePrepared(**prepared);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Result<EntangledHandle> Youtopia::Submit(const std::string& sql,
                                         const std::string& owner) {
  auto prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  if ((*prepared)->stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("not a SELECT statement");
  }
  return SubmitPrepared(**prepared, owner);
}

Result<std::vector<EntangledHandle>> Youtopia::SubmitBatch(
    const std::vector<std::string>& statements,
    const std::vector<std::string>& owners) {
  if (!owners.empty() && owners.size() != statements.size()) {
    return Status::InvalidArgument(
        "SubmitBatch owners/statements size mismatch");
  }
  // Compile the whole batch up front so a malformed member rejects it
  // before anything is registered with the coordinator.
  std::vector<EntangledQuery> queries;
  queries.reserve(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    auto prepared = Prepare(statements[i]);
    if (!prepared.ok()) return prepared.status();
    if ((*prepared)->stmt->kind != StatementKind::kSelect) {
      return Status::InvalidArgument("batch statement " + std::to_string(i) +
                                     " is not a SELECT statement");
    }
    const auto& select =
        static_cast<const SelectStatement&>(*(*prepared)->stmt);
    auto query = Normalizer::Normalize(
        select, /*id=*/0, owners.empty() ? "" : owners[i], (*prepared)->sql);
    if (!query.ok()) return query.status();
    queries.push_back(query.TakeValue());
  }
  auto handles = coordinator_.SubmitAll(std::move(queries));
  if (handles.ok() && wal_ != nullptr) {
    YOUTOPIA_RETURN_IF_ERROR(wal_->SyncAll());
    MaybeAutoCheckpoint();
  }
  return handles;
}

Result<RunOutcome> Youtopia::Run(const std::string& sql,
                                 const std::string& owner) {
  auto prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  RunOutcome outcome;
  if ((*prepared)->entangled) {
    auto handle = SubmitPrepared(**prepared, owner);
    if (!handle.ok()) return handle.status();
    outcome.entangled = true;
    outcome.handle = handle.TakeValue();
    return outcome;
  }
  auto result = ExecutePrepared(**prepared, LockWait::kBlock);
  if (!result.ok()) return result.status();
  outcome.result = result.TakeValue();
  return outcome;
}

}  // namespace youtopia
