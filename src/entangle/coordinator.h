#ifndef YOUTOPIA_ENTANGLE_COORDINATOR_H_
#define YOUTOPIA_ENTANGLE_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "entangle/answer_relation.h"
#include "entangle/coordinator_journal.h"
#include "entangle/match_graph.h"
#include "entangle/matcher.h"
#include "entangle/pending_pool.h"
#include "storage/storage_engine.h"
#include "txn/txn_manager.h"

namespace youtopia {

/// Aggregate counters exposed to the administrative interface and the
/// benchmarks.
struct CoordinatorStats {
  size_t submitted = 0;
  size_t matched_queries = 0;
  size_t matched_groups = 0;
  size_t cancelled = 0;
  size_t failed_installs = 0;
  size_t retrigger_rounds = 0;
  size_t constraints_from_stored = 0;
  size_t match_calls = 0;
  uint64_t match_micros_total = 0;
  size_t search_steps_total = 0;
  /// Every matching round: one per Submit/SubmitAll, one per retriggered
  /// root. `global_rounds` is always 0. Both keep these names because
  /// perfbench's traced driver reads them (coord.global_round_frac).
  size_t shard_rounds = 0;
  size_t global_rounds = 0;
  /// SubmitAll calls and the queries they carried.
  size_t batches = 0;
  size_t batched_queries = 0;
  /// OnComplete registrations and deliveries (across all handles).
  size_t callbacks_registered = 0;
  size_t callbacks_fired = 0;
};

/// Future-like handle to a submitted entangled query. The query is
/// answered when the coordinator matches it into a group; until then it
/// waits — "a query whose postcondition is not satisfied is not
/// rejected but waits for an opportunity to retry" (paper §1).
///
/// Completion can be consumed two ways: blocking (`Wait`) or
/// event-driven (`OnComplete`). The event-driven form is what lets one
/// thread drive many outstanding coordinations.
class EntangledHandle {
 public:
  /// Invoked exactly once when the query reaches a terminal state
  /// (satisfied, cancelled or expired). The handle passed in is done;
  /// inspect `Outcome()` / `Answers()` to learn which way it went.
  using CompletionCallback = std::function<void(const EntangledHandle&)>;

  QueryId id() const;

  /// True once the query is satisfied, cancelled or expired.
  bool Done() const;

  /// Terminal status: OK when satisfied, Aborted when cancelled,
  /// TimedOut when expired. nullopt while the query is still pending —
  /// a pending query has no outcome yet, misleading or otherwise.
  std::optional<Status> Outcome() const;

  /// Blocks until done or timeout. Returns OK when satisfied, Aborted
  /// when cancelled, TimedOut when still pending at the deadline.
  Status Wait(std::chrono::milliseconds timeout) const;

  /// Registers a completion callback. Fires exactly once per
  /// registration: immediately (in the calling thread) when the handle
  /// is already done, otherwise from whichever thread completes the
  /// query. Callbacks run outside the coordinator's internal locks, so
  /// they may safely call back into the coordinator (submit a follow-up,
  /// inspect stats, ...).
  void OnComplete(CompletionCallback callback);

  /// Grounded answer tuples, one per head atom. Valid when Done() and
  /// satisfied.
  std::vector<Tuple> Answers() const;

  /// Completion timestamp (satisfaction, cancellation or expiry);
  /// nullopt while pending. Lets load drivers measure exact
  /// submission-to-answer latency.
  std::optional<std::chrono::steady_clock::time_point> CompletedAt() const;

 private:
  friend class Coordinator;
  /// Callback-delivery counters shared between a coordinator and every
  /// handle it issued; atomics because immediate-fire registrations on
  /// completed handles happen outside the coordinator locks (and may
  /// outlive the coordinator itself).
  struct CallbackCounters {
    std::atomic<size_t> registered{0};
    std::atomic<size_t> fired{0};
  };
  struct State {
    /// Rank kHandleState: completion happens while the coordinator
    /// mutex is held, so handle state nests inside it.
    mutable Mutex mu{LockRank::kHandleState, "handle_state"};
    mutable CondVar cv;
    /// Immutable after construction (set before the state is shared).
    QueryId id = 0;
    bool done GUARDED_BY(mu) = false;
    /// Terminal status; empty while pending (never a placeholder
    /// "timed out" that a caller could mistake for a real outcome).
    std::optional<Status> outcome GUARDED_BY(mu);
    std::vector<Tuple> answers GUARDED_BY(mu);
    std::chrono::steady_clock::time_point completed_at GUARDED_BY(mu);
    /// Callbacks awaiting completion; drained exactly once.
    std::vector<CompletionCallback> callbacks GUARDED_BY(mu);
    /// Immutable after construction; the counters themselves are atomic.
    std::shared_ptr<CallbackCounters> counters;
  };
  friend class DetachedHandles;
  explicit EntangledHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Creates and completes *detached* handles: handles whose completion is
/// driven by a transport instead of a local coordinator. The wire
/// protocol's client side (net::RemoteClient) pairs one with each
/// registered query and completes it when the server pushes the
/// coordination's terminal state, so remote callers consume completion
/// through the exact same EntangledHandle surface (Wait / OnComplete /
/// Answers) as in-process callers. Lives next to EntangledHandle because
/// it needs the handle's private state.
class DetachedHandles {
 public:
  /// A pending handle carrying the engine-side query id.
  static EntangledHandle Create(QueryId id);

  /// Completes `handle` exactly once: records outcome/answers, wakes
  /// waiters, and fires parked callbacks in the calling thread. Calls
  /// after the first are no-ops, so a duplicated push is harmless.
  static void Complete(const EntangledHandle& handle, Status outcome,
                       std::vector<Tuple> answers);
};

struct CoordinatorConfig {
  MatchConfig match;
  /// Create missing answer-relation tables on first install.
  bool auto_create_answer_tables = true;
  /// Ignored. The coordinator is one mutex over one pending pool
  /// (DESIGN.md #4); the field stays only because perfbench's traced
  /// driver still sets it.
  size_t num_shards = 1;
};

/// Summary of one pending query for introspection.
struct PendingQueryInfo {
  QueryId id = 0;
  std::string owner;
  std::string sql;
  std::string ir;
  /// Time spent waiting so far.
  uint64_t age_micros = 0;
};

/// The coordination component of the paper's architecture (§2.2): "runs
/// whenever an entangled query arrives in the system", consulting both
/// regular tables and the pending-query tables, and directing the
/// execution engine to install coordinated answers.
///
/// Concurrency model: one mutex guards the pending pool, the Matcher and
/// every per-query map, so registration, matching, installation and
/// withdrawal are serialized (design decision #4).
/// Installation runs inside a transaction from the TxnManager, so a
/// concurrent regular workload observes coordinated answers atomically
/// — design decision #3. Completion callbacks fire after all internal
/// locks are released, in the thread whose submission closed the group.
class Coordinator {
 public:
  /// Optional hook executed inside the installation transaction, after
  /// the answer tuples are inserted. A non-OK return aborts the whole
  /// installation (all answers roll back) and the group stays pending.
  /// The travel application uses this for seat-inventory enforcement;
  /// tests use it for failure injection.
  using InstallHook =
      std::function<Status(Transaction*, TxnManager*, const MatchResult&)>;

  Coordinator(StorageEngine* storage, TxnManager* txn_manager,
              CoordinatorConfig config = {});

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Registers the query (assigning it a fresh id) and immediately runs
  /// a matching round. Returns a handle that completes when the query
  /// is eventually answered.
  Result<EntangledHandle> Submit(EntangledQuery query);

  /// Registers a whole batch, then runs one matching round over it. A
  /// complete group submitted together (the paper's friends booking
  /// jointly) closes in one round instead of N lock round-trips, and
  /// intermediate partial matches are never attempted. All-or-nothing
  /// on validation: an invalid member rejects the batch before anything
  /// is registered. Handles are returned in submission order.
  Result<std::vector<EntangledHandle>> SubmitAll(
      std::vector<EntangledQuery> queries);

  /// Withdraws a pending query. Fails with NotFound when it already
  /// matched or never existed.
  Status Cancel(QueryId id);

  /// Re-runs matching for every pending query (e.g. after regular DML
  /// changed the database so previously ungroundable queries may now
  /// ground). Returns the number of queries newly satisfied.
  Result<size_t> RetriggerAll();

  /// Re-runs matching only for pending queries whose domain predicates
  /// read `table` — the targeted retry after regular DML touches that
  /// table. The server layer calls this automatically when
  /// YoutopiaConfig::retrigger_on_dml is set.
  Result<size_t> RetriggerDependentsOf(const std::string& table);

  /// Withdraws every pending query that has waited longer than
  /// `max_age`; their handles complete with kTimedOut and their
  /// registered OnComplete callbacks fire (outside the coordinator lock),
  /// exactly as for satisfaction and cancellation. Returns the number
  /// expired. Gives deployments a lever against queries whose partners
  /// never arrive.
  Result<size_t> ExpireOlderThan(std::chrono::milliseconds max_age);

  size_t pending_count() const;
  std::vector<PendingQueryInfo> Pending() const;
  MatchGraph BuildGraph() const;

  /// Text rendering of the current match graph (admin interface).
  std::string RenderGraph() const;

  CoordinatorStats stats() const;

  const CoordinatorConfig& config() const { return config_; }

  void SetInstallHook(InstallHook hook);

  /// Registers the journal that records submissions, resolutions and
  /// installations (see CoordinatorJournal for the per-call contract).
  /// Pass nullptr to detach. Set before concurrent submission starts —
  /// typically right after construction, or after recovery has
  /// re-registered the surviving pending queries.
  void SetJournal(CoordinatorJournal* journal);

  /// Re-registers a query recovered from the journal, preserving its
  /// original id. No matching round runs and nothing is journaled (the
  /// journal already knows it); the caller retriggers once every
  /// survivor is back. Advances the id counter past the restored id.
  /// Fails when the id is 0 (never assigned) or already pending.
  Status RestorePending(EntangledQuery query);

  /// Raises the id counter to at least `floor`, so post-recovery
  /// submissions never collide with ids the journal has already seen.
  void SeedNextQueryId(QueryId floor);

  /// Runs `fn(pending, next_id)` with the coordinator mutex held: no
  /// submission, match, install or withdrawal can interleave, so the
  /// pending list and id counter `fn` sees are a consistent cut.
  /// Checkpointing uses this to snapshot coordinator state atomically
  /// with the storage scan. `fn` must not call back into the
  /// coordinator.
  Status WithQuiescedPending(
      const std::function<Status(const std::vector<PendingQueryInfo>&,
                                 QueryId)>& fn) const;

 private:
  /// A completed handle whose callbacks still have to run; collected
  /// while the coordinator mutex is held, fired after it is released.
  struct DeferredNotification {
    std::shared_ptr<EntangledHandle::State> state;
    std::vector<EntangledHandle::CompletionCallback> callbacks;
  };
  using Deferred = std::vector<DeferredNotification>;

  /// Adds `query` to the pool under `query.id` and creates its handle.
  std::shared_ptr<EntangledHandle::State> RegisterLocked(EntangledQuery query)
      REQUIRES(mu_);

  /// The submission protocol shared by Submit and SubmitAll: registers
  /// `queries` under fresh ids, journals them, and runs one matching
  /// round over them. On an error every query this call registered is
  /// withdrawn before returning, so no phantom registrations outlive a
  /// failed submission. On success returns one handle state per query,
  /// in order.
  Result<std::vector<std::shared_ptr<EntangledHandle::State>>> SubmitLocked(
      std::vector<EntangledQuery> queries, Deferred* deferred) REQUIRES(mu_);

  /// Runs matching rounds rooted at each of `roots` in order and, on
  /// success, installs groups and retriggers affected queries. Returns
  /// number of queries satisfied (group sizes summed over the retrigger
  /// cascade).
  Result<size_t> MatchAndInstallLocked(const std::vector<QueryId>& roots,
                                       Deferred* deferred) REQUIRES(mu_);

  /// Installs a matched group atomically. On success removes members
  /// from the pool and completes their handles.
  Result<bool> InstallLocked(const MatchResult& match, Deferred* deferred)
      REQUIRES(mu_);

  /// Removes `id` from the pool and handles, completing the handle with
  /// `outcome` (cancellation, expiry). NotFound when it is not pending.
  Status WithdrawLocked(QueryId id, Status outcome, Deferred* deferred)
      REQUIRES(mu_);

  /// One matching round per still-pending id in `ids` — the shared body
  /// of RetriggerAll and RetriggerDependentsOf.
  Result<size_t> RetriggerLocked(const std::vector<QueryId>& ids,
                                 Deferred* deferred) REQUIRES(mu_);

  std::vector<PendingQueryInfo> PendingLocked() const REQUIRES(mu_);

  /// Marks `state` done with `outcome`, wakes waiters and queues its
  /// callbacks for delivery after the lock drops.
  void Complete(const std::shared_ptr<EntangledHandle::State>& state,
                Status outcome, std::vector<Tuple> answers,
                Deferred* deferred);

  /// Delivers queued completion callbacks. Must be called with the
  /// coordinator mutex released; every public entry point that can
  /// complete handles flushes after unlocking (error paths included).
  void FireCallbacks(Deferred* deferred);

  StorageEngine* storage_;
  TxnManager* txn_manager_;
  CoordinatorConfig config_;
  AnswerRelationManager answers_;
  std::shared_ptr<EntangledHandle::CallbackCounters> callback_counters_;

  /// Rank kCoordinator: the outermost engine lock below the client
  /// tiers. Journal appends, install transactions and handle completion
  /// all nest inside it.
  mutable Mutex mu_{LockRank::kCoordinator, "coordinator"};
  PendingPool pool_ GUARDED_BY(mu_);
  /// Stateful (the CHOOSE-1 rng), so only invoked with mu_ held.
  Matcher matcher_ GUARDED_BY(mu_);
  std::map<QueryId, std::shared_ptr<EntangledHandle::State>> handles_
      GUARDED_BY(mu_);
  std::map<QueryId, std::chrono::steady_clock::time_point> arrivals_
      GUARDED_BY(mu_);
  CoordinatorStats stats_ GUARDED_BY(mu_);
  QueryId next_id_ GUARDED_BY(mu_) = 1;
  InstallHook install_hook_ GUARDED_BY(mu_);

  /// Durability journal; atomic so SetJournal needs no lock. Journal
  /// calls happen with mu_ held, keeping log order consistent with pool
  /// mutation order.
  std::atomic<CoordinatorJournal*> journal_{nullptr};
};

}  // namespace youtopia

#endif  // YOUTOPIA_ENTANGLE_COORDINATOR_H_
