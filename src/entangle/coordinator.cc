#include "entangle/coordinator.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace youtopia {

QueryId EntangledHandle::id() const {
  // id is immutable once the state is shared; no lock needed.
  return state_->id;
}

bool EntangledHandle::Done() const {
  MutexLock lock(state_->mu);
  return state_->done;
}

std::optional<Status> EntangledHandle::Outcome() const {
  MutexLock lock(state_->mu);
  return state_->outcome;
}

Status EntangledHandle::Wait(std::chrono::milliseconds timeout) const {
  MutexLock lock(state_->mu);
  if (!state_->cv.WaitFor(state_->mu, timeout,
                          [this] { return state_->done; })) {
    return Status::TimedOut("entangled query " + std::to_string(state_->id) +
                            " still pending");
  }
  return *state_->outcome;
}

void EntangledHandle::OnComplete(CompletionCallback callback) {
  if (!callback) return;
  {
    MutexLock lock(state_->mu);
    if (state_->counters) state_->counters->registered.fetch_add(1);
    if (!state_->done) {
      // Parked; whoever completes the query delivers it (outside the
      // coordinator locks).
      state_->callbacks.push_back(std::move(callback));
      return;
    }
  }
  // Already done: deliver immediately in the registering thread. A
  // throwing callback must not differ between this path and deferred
  // delivery (which would otherwise terminate), so both swallow and
  // log — completion callbacks are expected not to throw.
  try {
    callback(*this);
  } catch (const std::exception& e) {
    YOUTOPIA_LOG(kError) << "OnComplete callback threw: " << e.what();
  } catch (...) {
    YOUTOPIA_LOG(kError) << "OnComplete callback threw";
  }
  if (state_->counters) state_->counters->fired.fetch_add(1);
}

std::vector<Tuple> EntangledHandle::Answers() const {
  MutexLock lock(state_->mu);
  return state_->answers;
}

std::optional<std::chrono::steady_clock::time_point>
EntangledHandle::CompletedAt() const {
  MutexLock lock(state_->mu);
  if (!state_->done) return std::nullopt;
  return state_->completed_at;
}

EntangledHandle DetachedHandles::Create(QueryId id) {
  auto state = std::make_shared<EntangledHandle::State>();
  state->id = id;
  return EntangledHandle(std::move(state));
}

void DetachedHandles::Complete(const EntangledHandle& handle, Status outcome,
                               std::vector<Tuple> answers) {
  const std::shared_ptr<EntangledHandle::State>& state = handle.state_;
  std::vector<EntangledHandle::CompletionCallback> callbacks;
  {
    MutexLock lock(state->mu);
    if (state->done) return;
    state->done = true;
    state->outcome = std::move(outcome);
    state->answers = std::move(answers);
    state->completed_at = std::chrono::steady_clock::now();
    callbacks = std::move(state->callbacks);
    state->callbacks.clear();
  }
  state->cv.NotifyAll();
  EntangledHandle done(state);
  for (EntangledHandle::CompletionCallback& callback : callbacks) {
    // Same exception policy as coordinator-driven delivery: swallow and
    // log, so one throwing callback cannot drop the rest.
    try {
      callback(done);
    } catch (const std::exception& e) {
      YOUTOPIA_LOG(kError) << "OnComplete callback threw: " << e.what();
    } catch (...) {
      YOUTOPIA_LOG(kError) << "OnComplete callback threw";
    }
    if (state->counters) state->counters->fired.fetch_add(1);
  }
}

namespace {

/// Runs a Coordinator's deferred completion callbacks on scope exit.
/// Declared BEFORE the lock in every mutating entry point so the flush
/// happens after the lock is released, on success and error paths
/// alike (destruction order is the reverse of declaration).
class CallbackFlusher {
 public:
  using Flush = std::function<void()>;
  explicit CallbackFlusher(Flush flush) : flush_(std::move(flush)) {}
  ~CallbackFlusher() { flush_(); }
  CallbackFlusher(const CallbackFlusher&) = delete;
  CallbackFlusher& operator=(const CallbackFlusher&) = delete;

 private:
  Flush flush_;
};

}  // namespace

Coordinator::Coordinator(StorageEngine* storage, TxnManager* txn_manager,
                         CoordinatorConfig config)
    : storage_(storage),
      txn_manager_(txn_manager),
      config_(config),
      answers_(storage, config.auto_create_answer_tables),
      callback_counters_(
          std::make_shared<EntangledHandle::CallbackCounters>()),
      matcher_(storage, config.match) {}

std::shared_ptr<EntangledHandle::State> Coordinator::RegisterLocked(
    EntangledQuery query) {
  const QueryId id = query.id;
  auto state = std::make_shared<EntangledHandle::State>();
  state->id = id;
  state->counters = callback_counters_;
  handles_.emplace(id, state);
  arrivals_.emplace(id, std::chrono::steady_clock::now());
  pool_.Add(std::make_shared<const EntangledQuery>(std::move(query)));
  ++stats_.submitted;
  return state;
}

Result<std::vector<std::shared_ptr<EntangledHandle::State>>>
Coordinator::SubmitLocked(std::vector<EntangledQuery> queries,
                          Deferred* deferred) {
  std::vector<std::shared_ptr<EntangledHandle::State>> states;
  std::vector<QueryId> roots;
  states.reserve(queries.size());
  roots.reserve(queries.size());
  for (EntangledQuery& query : queries) {
    query.id = next_id_++;
    roots.push_back(query.id);
    states.push_back(RegisterLocked(std::move(query)));
  }
  // Journal the registrations before any matching: a query the log has
  // not seen must never match (its group would be unrecoverable).
  Status status = Status::OK();
  if (CoordinatorJournal* journal = journal_.load()) {
    for (size_t i = 0; i < roots.size() && status.ok(); ++i) {
      status = journal->Submitted(*pool_.Get(roots[i]));
    }
  }
  if (status.ok()) {
    ++stats_.shard_rounds;
    status = MatchAndInstallLocked(roots, deferred).status();
  }
  if (!status.ok()) {
    // Don't strand the registrations: the caller gets no handles back,
    // so a query left in the pool could later match with nobody able
    // to observe or cancel it. (NotFound here just means the round
    // already satisfied it before failing elsewhere.)
    for (QueryId id : roots) (void)WithdrawLocked(id, status, deferred);
    return status;
  }
  return states;
}

Result<EntangledHandle> Coordinator::Submit(EntangledQuery query) {
  if (query.heads.empty()) {
    return Status::InvalidArgument("entangled query has no heads");
  }
  Deferred deferred;
  CallbackFlusher flusher([this, &deferred] { FireCallbacks(&deferred); });
  std::vector<EntangledQuery> one;
  one.push_back(std::move(query));
  MutexLock lock(mu_);
  auto states = SubmitLocked(std::move(one), &deferred);
  if (!states.ok()) return states.status();
  return EntangledHandle(states->front());
}

Result<std::vector<EntangledHandle>> Coordinator::SubmitAll(
    std::vector<EntangledQuery> queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].heads.empty()) {
      return Status::InvalidArgument("entangled query " + std::to_string(i) +
                                     " in batch has no heads");
    }
  }
  Deferred deferred;
  CallbackFlusher flusher([this, &deferred] { FireCallbacks(&deferred); });
  MutexLock lock(mu_);
  ++stats_.batches;
  stats_.batched_queries += queries.size();
  if (queries.empty()) return std::vector<EntangledHandle>{};
  // One matching round for the whole batch: the first root already sees
  // every member in the pool, so a complete group closes on its first
  // TryMatch instead of after N partial attempts.
  auto states = SubmitLocked(std::move(queries), &deferred);
  if (!states.ok()) return states.status();
  std::vector<EntangledHandle> handles;
  handles.reserve(states->size());
  for (auto& state : *states) handles.push_back(EntangledHandle(state));
  return handles;
}

void Coordinator::Complete(
    const std::shared_ptr<EntangledHandle::State>& state, Status outcome,
    std::vector<Tuple> answers, Deferred* deferred) {
  DeferredNotification notification;
  notification.state = state;
  {
    MutexLock hlock(state->mu);
    state->done = true;
    state->outcome = std::move(outcome);
    state->answers = std::move(answers);
    state->completed_at = std::chrono::steady_clock::now();
    notification.callbacks = std::move(state->callbacks);
    state->callbacks.clear();
  }
  state->cv.NotifyAll();
  if (!notification.callbacks.empty()) {
    deferred->push_back(std::move(notification));
  }
}

void Coordinator::FireCallbacks(Deferred* deferred) {
  for (DeferredNotification& notification : *deferred) {
    EntangledHandle handle(notification.state);
    for (EntangledHandle::CompletionCallback& callback :
         notification.callbacks) {
      // Deferred delivery runs inside CallbackFlusher's destructor; an
      // escaping exception would terminate the process and drop the
      // rest of the batch. Swallow and log, matching the already-done
      // registration path.
      try {
        callback(handle);
      } catch (const std::exception& e) {
        YOUTOPIA_LOG(kError) << "OnComplete callback threw: " << e.what();
      } catch (...) {
        YOUTOPIA_LOG(kError) << "OnComplete callback threw";
      }
      callback_counters_->fired.fetch_add(1);
    }
  }
  deferred->clear();
}

Status Coordinator::WithdrawLocked(QueryId id, Status outcome,
                                   Deferred* deferred) {
  if (pool_.Remove(id) == nullptr) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not pending");
  }
  ++stats_.cancelled;
  // Journal the resolution so replay does not resurrect a query whose
  // owner already saw it terminate. Failure is tolerable here — see the
  // CoordinatorJournal::Resolved contract — so the withdrawal proceeds.
  if (CoordinatorJournal* journal = journal_.load()) {
    Status logged = journal->Resolved(id, outcome);
    if (!logged.ok()) {
      YOUTOPIA_LOG(kWarning) << "journal resolve for query " << id
                             << " failed: " << logged.ToString();
    }
  }
  arrivals_.erase(id);
  auto it = handles_.find(id);
  if (it != handles_.end()) {
    Complete(it->second, std::move(outcome), {}, deferred);
    handles_.erase(it);
  }
  return Status::OK();
}

Status Coordinator::Cancel(QueryId id) {
  Deferred deferred;
  CallbackFlusher flusher([this, &deferred] { FireCallbacks(&deferred); });
  MutexLock lock(mu_);
  return WithdrawLocked(id, Status::Aborted("query cancelled"), &deferred);
}

Result<size_t> Coordinator::ExpireOlderThan(
    std::chrono::milliseconds max_age) {
  Deferred deferred;
  CallbackFlusher flusher([this, &deferred] { FireCallbacks(&deferred); });
  const auto cutoff = std::chrono::steady_clock::now() - max_age;
  MutexLock lock(mu_);
  std::vector<QueryId> expired;
  for (const auto& [id, arrival] : arrivals_) {
    if (arrival <= cutoff && pool_.Contains(id)) expired.push_back(id);
  }
  for (QueryId id : expired) {
    YOUTOPIA_RETURN_IF_ERROR(WithdrawLocked(
        id, Status::TimedOut("entangled query expired without a partner"),
        &deferred));
  }
  return expired.size();
}

Result<size_t> Coordinator::RetriggerLocked(const std::vector<QueryId>& ids,
                                            Deferred* deferred) {
  size_t satisfied = 0;
  for (QueryId id : ids) {
    if (!pool_.Contains(id)) continue;  // an earlier round took it
    ++stats_.shard_rounds;
    auto n = MatchAndInstallLocked({id}, deferred);
    if (!n.ok()) return n.status();
    satisfied += n.value();
  }
  return satisfied;
}

Result<size_t> Coordinator::RetriggerDependentsOf(const std::string& table) {
  Deferred deferred;
  CallbackFlusher flusher([this, &deferred] { FireCallbacks(&deferred); });
  MutexLock lock(mu_);
  return RetriggerLocked(pool_.QueriesWithDomainOn(table), &deferred);
}

Result<size_t> Coordinator::RetriggerAll() {
  Deferred deferred;
  CallbackFlusher flusher([this, &deferred] { FireCallbacks(&deferred); });
  MutexLock lock(mu_);
  return RetriggerLocked(pool_.AllIds(), &deferred);
}

Result<size_t> Coordinator::MatchAndInstallLocked(
    const std::vector<QueryId>& roots, Deferred* deferred) {
  size_t satisfied = 0;
  // Worklist of match roots: the triggering queries first, then queries
  // whose constraints touch relations that received new answers.
  std::deque<QueryId> worklist(roots.begin(), roots.end());
  while (!worklist.empty()) {
    const QueryId root = worklist.front();
    worklist.pop_front();
    if (!pool_.Contains(root)) continue;

    const auto start = std::chrono::steady_clock::now();
    auto match = matcher_.TryMatch(root, pool_);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    ++stats_.match_calls;
    stats_.match_micros_total += static_cast<uint64_t>(elapsed.count());
    if (!match.ok()) return match.status();
    if (!match->has_value()) continue;

    const MatchResult& result = match->value();
    stats_.search_steps_total += result.steps;
    auto installed = InstallLocked(result, deferred);
    if (!installed.ok()) return installed.status();
    if (!installed.value()) continue;  // install aborted; stays pending

    satisfied += result.group.size();
    ++stats_.matched_groups;
    stats_.matched_queries += result.group.size();
    stats_.constraints_from_stored += result.from_stored;

    // New answers may unblock pending queries — but only those with a
    // constraint that the newly installed tuples could satisfy. The
    // prefilter keeps retriggering O(affected) instead of O(pool),
    // which is what makes the loaded-system demo scale (paper §3).
    ++stats_.retrigger_rounds;
    for (const auto& [relation, tuple] : result.installed) {
      for (QueryId qid : pool_.QueriesUnblockedBy(relation, tuple)) {
        worklist.push_back(qid);
      }
    }
  }
  return satisfied;
}

Result<bool> Coordinator::InstallLocked(const MatchResult& match,
                                        Deferred* deferred) {
  auto txn = txn_manager_->Begin();
  Status status = Status::OK();
  for (const QueryId qid : match.group) {
    auto query = pool_.Get(qid);
    if (query == nullptr) {
      status = Status::Internal("matched query " + std::to_string(qid) +
                                " vanished from the pool");
      break;
    }
    const auto& tuples = match.answers.at(qid);
    for (size_t h = 0; h < query->heads.size() && status.ok(); ++h) {
      status = answers_.Install(txn.get(), txn_manager_,
                                query->heads[h].relation, tuples[h]);
    }
    if (!status.ok()) break;
  }

  if (status.ok() && install_hook_) {
    status = install_hook_(txn.get(), txn_manager_, match);
  }

  if (!status.ok()) {
    ++stats_.failed_installs;
    YOUTOPIA_LOG(kInfo) << "coordination install aborted: "
                        << status.ToString();
    Status abort = txn_manager_->Abort(txn.get());
    if (!abort.ok()) return abort;
    return false;
  }

  // Journal the whole coordination — group resolution plus the
  // transaction's tuple writes — as ONE record, before the commit makes
  // the writes visible. If the append fails the transaction aborts and
  // the group stays pending: a matched group is never half-durable.
  if (CoordinatorJournal* journal = journal_.load()) {
    Status logged = journal->Installed(match.group, *txn);
    if (!logged.ok()) {
      ++stats_.failed_installs;
      YOUTOPIA_LOG(kError) << "coordination install not journaled, aborting: "
                           << logged.ToString();
      Status abort = txn_manager_->Abort(txn.get());
      if (!abort.ok()) return abort;
      return false;
    }
  }

  YOUTOPIA_RETURN_IF_ERROR(txn_manager_->Commit(txn.get()));

  // Point of no return: complete every member of the group.
  for (const QueryId qid : match.group) {
    if (pool_.Remove(qid) == nullptr) continue;
    arrivals_.erase(qid);
    auto it = handles_.find(qid);
    if (it != handles_.end()) {
      Complete(it->second, Status::OK(), match.answers.at(qid), deferred);
      handles_.erase(it);
    }
  }
  return true;
}

size_t Coordinator::pending_count() const {
  MutexLock lock(mu_);
  return pool_.size();
}

std::vector<PendingQueryInfo> Coordinator::PendingLocked() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<PendingQueryInfo> out;
  out.reserve(pool_.size());
  for (QueryId id : pool_.AllIds()) {
    auto query = pool_.Get(id);
    PendingQueryInfo info;
    info.id = id;
    info.owner = query->owner;
    info.sql = query->sql;
    info.ir = query->ToString();
    auto arrival = arrivals_.find(id);
    if (arrival != arrivals_.end()) {
      info.age_micros = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - arrival->second)
              .count());
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<PendingQueryInfo> Coordinator::Pending() const {
  MutexLock lock(mu_);
  return PendingLocked();
}

MatchGraph Coordinator::BuildGraph() const {
  MutexLock lock(mu_);
  return BuildMatchGraph(pool_);
}

std::string Coordinator::RenderGraph() const {
  MutexLock lock(mu_);
  return BuildMatchGraph(pool_).ToString(pool_);
}

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats total;
  {
    MutexLock lock(mu_);
    total = stats_;
  }
  total.callbacks_registered = callback_counters_->registered.load();
  total.callbacks_fired = callback_counters_->fired.load();
  return total;
}

void Coordinator::SetJournal(CoordinatorJournal* journal) {
  journal_.store(journal);
}

Status Coordinator::RestorePending(EntangledQuery query) {
  if (query.heads.empty()) {
    return Status::InvalidArgument("entangled query has no heads");
  }
  if (query.id == 0) {
    return Status::InvalidArgument(
        "restored query must carry its original id");
  }
  const QueryId id = query.id;
  MutexLock lock(mu_);
  if (pool_.Contains(id)) {
    return Status::AlreadyExists("query " + std::to_string(id) +
                                 " is already pending");
  }
  RegisterLocked(std::move(query));
  next_id_ = std::max(next_id_, id + 1);
  return Status::OK();
}

void Coordinator::SeedNextQueryId(QueryId floor) {
  MutexLock lock(mu_);
  next_id_ = std::max(next_id_, floor);
}

Status Coordinator::WithQuiescedPending(
    const std::function<Status(const std::vector<PendingQueryInfo>&,
                               QueryId)>& fn) const {
  MutexLock lock(mu_);
  return fn(PendingLocked(), next_id_);
}

void Coordinator::SetInstallHook(InstallHook hook) {
  {
    MutexLock lock(mu_);
    install_hook_ = std::move(hook);
  }
  // Hooks change what an installation writes (extra tables, inventory
  // decrements), which the plan cache's consumers may have planned
  // around; registering or clearing one retires every cached plan.
  // Invalidation is relation-granular, so this must restamp every
  // table, not just bump the global counter.
  storage_->catalog().BumpAllTableVersions();
}

}  // namespace youtopia
