#include "server/client.h"

#include <algorithm>

namespace youtopia {

void Client::Record(const std::string& sql) {
  if (!options_.record_history) return;
  MutexLock lock(mu_);
  history_.push_back(sql);
}

void Client::OutstandingSet::PruneLocked() {
  // Amortized prune: long-lived shared clients (middle tiers, load
  // drivers) submit unboundedly many queries, so retained handles must
  // track what is genuinely outstanding, not total submissions.
  if (handles.size() < prune_watermark) return;
  handles.erase(
      std::remove_if(handles.begin(), handles.end(),
                     [](const EntangledHandle& h) { return h.Done(); }),
      handles.end());
  prune_watermark = std::max<size_t>(16, handles.size() * 2);
}

void Client::OutstandingSet::Track(const EntangledHandle& handle) {
  MutexLock lock(mu);
  PruneLocked();
  handles.push_back(handle);
}

void Client::OutstandingSet::TrackAll(
    const std::vector<EntangledHandle>& tracked) {
  MutexLock lock(mu);
  PruneLocked();
  for (const EntangledHandle& handle : tracked) {
    if (!handle.Done()) handles.push_back(handle);
  }
}

std::vector<EntangledHandle> Client::OutstandingSet::Snapshot() {
  MutexLock lock(mu);
  handles.erase(
      std::remove_if(handles.begin(), handles.end(),
                     [](const EntangledHandle& h) { return h.Done(); }),
      handles.end());
  return handles;
}

StatementTask Client::MakeTask(StatementTask::Kind kind,
                               const std::string& sql) {
  StatementTask task;
  task.sql = sql;
  task.owner = options_.owner;
  task.session = session_id_;
  task.kind = kind;
  task.statement_timeout = options_.statement_timeout;
  task.retry_interval = options_.retry_interval;
  task.retry_max_interval = options_.retry_max_interval;
  return task;
}

std::future<Result<QueryResult>> Client::ExecuteAsync(const std::string& sql) {
  Record(sql);
  auto promise = std::make_shared<std::promise<Result<QueryResult>>>();
  auto future = promise->get_future();
  StatementTask task = MakeTask(StatementTask::Kind::kExecute, sql);
  task.on_done = [promise](Result<RunOutcome> outcome) {
    if (!outcome.ok()) {
      promise->set_value(Result<QueryResult>(outcome.status()));
    } else {
      promise->set_value(Result<QueryResult>(std::move(outcome->result)));
    }
  };
  Status admitted = db_->executor_service().Submit(std::move(task));
  if (!admitted.ok()) promise->set_value(Result<QueryResult>(admitted));
  return future;
}

Result<QueryResult> Client::Execute(const std::string& sql) {
  return ExecuteAsync(sql).get();
}

std::future<Status> Client::ExecuteScriptAsync(const std::string& sql) {
  Record(sql);
  auto promise = std::make_shared<std::promise<Status>>();
  auto future = promise->get_future();
  StatementTask task = MakeTask(StatementTask::Kind::kScript, sql);
  task.on_done = [promise](Result<RunOutcome> outcome) {
    promise->set_value(outcome.status());
  };
  Status admitted = db_->executor_service().Submit(std::move(task));
  if (!admitted.ok()) promise->set_value(admitted);
  return future;
}

Status Client::ExecuteScript(const std::string& sql) {
  return ExecuteScriptAsync(sql).get();
}

Result<EntangledHandle> Client::Submit(const std::string& sql,
                                       CompletionCallback on_complete) {
  return SubmitAs(options_.owner, sql, std::move(on_complete));
}

Result<EntangledHandle> Client::SubmitAs(const std::string& owner,
                                         const std::string& sql,
                                         CompletionCallback on_complete) {
  Record(sql);
  auto handle = db_->Submit(sql, owner);
  if (!handle.ok()) return handle;
  if (on_complete) handle->OnComplete(std::move(on_complete));
  if (!handle->Done()) outstanding_->Track(*handle);
  return handle;
}

Result<std::vector<EntangledHandle>> Client::SubmitBatch(
    const std::vector<std::string>& statements,
    CompletionCallback on_complete) {
  return SubmitBatchAs({}, statements, std::move(on_complete));
}

Result<std::vector<EntangledHandle>> Client::SubmitBatchAs(
    const std::vector<std::string>& owners,
    const std::vector<std::string>& statements,
    CompletionCallback on_complete) {
  // owners/statements size mismatch is rejected by Youtopia::SubmitBatch.
  for (const std::string& sql : statements) Record(sql);
  std::vector<std::string> tags;
  if (owners.empty()) {
    tags.assign(statements.size(), options_.owner);
  } else {
    tags = owners;
  }
  auto handles = db_->SubmitBatch(statements, tags);
  if (!handles.ok()) return handles;
  // Register callbacks immediately: completions that already happened
  // inside the batch round fire right here, later ones fire from the
  // completing thread.
  if (on_complete) {
    for (EntangledHandle& handle : *handles) handle.OnComplete(on_complete);
  }
  outstanding_->TrackAll(*handles);
  return handles;
}

std::future<Result<RunOutcome>> Client::RunAsync(const std::string& sql) {
  Record(sql);
  auto promise = std::make_shared<std::promise<Result<RunOutcome>>>();
  auto future = promise->get_future();
  StatementTask task = MakeTask(StatementTask::Kind::kRun, sql);
  // The continuation shares the tracking set (not `this`), so a
  // Client destroyed while tasks are still in flight is safe.
  auto outstanding = outstanding_;
  task.on_done = [outstanding, promise](Result<RunOutcome> outcome) {
    // Track before resolving the future, so Outstanding() already sees
    // the handle when the caller's .get() returns.
    if (outcome.ok() && outcome->entangled && outcome->handle.has_value() &&
        !outcome->handle->Done()) {
      outstanding->Track(*outcome->handle);
    }
    promise->set_value(std::move(outcome));
  };
  Status admitted = db_->executor_service().Submit(std::move(task));
  if (!admitted.ok()) promise->set_value(Result<RunOutcome>(admitted));
  return future;
}

Result<RunOutcome> Client::Run(const std::string& sql) {
  return RunAsync(sql).get();
}

std::vector<EntangledHandle> Client::Outstanding() {
  return outstanding_->Snapshot();
}

Status Client::CancelAll() {
  for (const EntangledHandle& handle : Outstanding()) {
    Status status = db_->coordinator().Cancel(handle.id());
    // NotFound just means it completed concurrently.
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      return status;
    }
  }
  return Status::OK();
}

std::vector<std::string> Client::History() const {
  MutexLock lock(mu_);
  return history_;
}

}  // namespace youtopia
