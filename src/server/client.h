#ifndef YOUTOPIA_SERVER_CLIENT_H_
#define YOUTOPIA_SERVER_CLIENT_H_

#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "server/client_interface.h"
#include "server/youtopia.h"
#include "service/executor_service.h"

namespace youtopia {

/// Per-client configuration for the `Client` façade.
struct ClientOptions {
  ClientOptions() = default;
  /// Shorthand for the common case: an owner-tagged client, optionally
  /// without history (long-lived shared clients, benchmarks).
  explicit ClientOptions(std::string owner_tag, bool record = true)
      : owner(std::move(owner_tag)), record_history(record) {}

  /// Default owner tag attached to entangled submissions — what the
  /// admin interface and notifications display. Overridable per call
  /// via the *As variants.
  std::string owner;

  /// Upper bound on automatic retries of regular statements that lose
  /// lock conflicts (kTimedOut from the lock manager). Zero means no
  /// caller-requested retries, surfacing the conflict — the seed's
  /// behavior. Non-zero absorbs transient conflicts the way a driver's
  /// statement timeout does. Carried into every `StatementTask` this
  /// client submits, so the executor service paces its conflict
  /// requeues by the same budget.
  std::chrono::milliseconds statement_timeout{0};

  /// Initial pause between lock-conflict retries. Each retry doubles
  /// the pause (exponential backoff, capped at the larger of this and
  /// retry_max_interval, and at the time left until the statement
  /// deadline), so a long conflict is waited out instead of hammered.
  /// Non-positive values are treated as 1ms — the retry loop never
  /// busy-spins on the clock.
  std::chrono::milliseconds retry_interval{1};

  /// Upper bound on the exponential backoff pause. Never clamps below
  /// retry_interval: the configured initial pause is the minimum
  /// pacing.
  std::chrono::milliseconds retry_max_interval{64};

  /// Record statement history for the admin interface.
  bool record_history = true;
};

/// The stable public façade over an embedded `Youtopia` instance — the
/// API every external caller (middle tiers, examples, benchmarks,
/// future network frontends) programs against. One `Client` per logical
/// connection; the underlying `Youtopia` is shared and thread-safe,
/// the `Client` itself is thread-safe for tracking but intended to be
/// driven like a connection: one logical caller at a time.
///
/// Execute / Run / ExecuteScript (and their async forms) flow through
/// the engine's `ExecutorService` as `StatementTask`s tagged with this
/// client's session id, so those statements execute in submission
/// order while different clients' statements run in parallel across
/// the pool. The synchronous methods are thin blocking wrappers over
/// the async ones; with the default pool size of zero they execute
/// inline in the calling thread — the seed's synchronous semantics.
/// `Submit`/`SubmitBatch` are different: they register with the
/// coordinator immediately (non-blocking, no queueing), so they are
/// NOT ordered relative to still-queued async statements of the same
/// client — an entangled submission that must observe a prior
/// `ExecuteAsync` write should go through `RunAsync` (same FIFO
/// domain) instead.
///
/// Entangled submissions are non-blocking: they return an
/// `EntangledHandle` immediately, and completion is consumed either by
/// blocking (`handle.Wait`) or — the scalable form — by registering an
/// `OnComplete` callback at submission time, so no caller thread parks
/// per outstanding query.
class Client : public ClientInterface {
 public:
  using CompletionCallback = EntangledHandle::CompletionCallback;

  explicit Client(Youtopia* db, ClientOptions options = {})
      : db_(db), options_(std::move(options)) {}

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const ClientOptions& options() const { return options_; }
  const std::string& owner() const override { return options_.owner; }
  Youtopia& db() { return *db_; }
  const Youtopia& db() const { return *db_; }

  /// This client's FIFO domain in the executor service.
  uint64_t session_id() const { return session_id_; }

  /// Executes one *regular* statement, retrying lock conflicts up to
  /// the statement timeout. Entangled statements are rejected with
  /// InvalidArgument (use Submit / SubmitBatch / Run).
  Result<QueryResult> Execute(const std::string& sql) override;

  /// Async Execute: enqueues the statement on the executor service and
  /// returns a future for its result. The calling thread is free as
  /// soon as the task is admitted (backpressure: admission blocks while
  /// the submission queue is full).
  std::future<Result<QueryResult>> ExecuteAsync(const std::string& sql) override;

  /// Executes a ';'-separated batch of regular statements, discarding
  /// results (schema/data setup scripts). First failure stops the
  /// script: earlier statements stay applied, later ones never run.
  Status ExecuteScript(const std::string& sql) override;

  /// Async ExecuteScript; the whole script is one task, so it holds the
  /// session's FIFO slot until it completes or fails.
  std::future<Status> ExecuteScriptAsync(const std::string& sql) override;

  /// Submits one *entangled* query tagged with the client's owner.
  /// `on_complete` (optional) is registered on the handle before
  /// returning, so a completion can never slip between submission and
  /// registration.
  Result<EntangledHandle> Submit(
      const std::string& sql, CompletionCallback on_complete = nullptr) override;

  /// Submit with an explicit owner tag (middle tiers acting for many
  /// end users share one client).
  Result<EntangledHandle> SubmitAs(
      const std::string& owner, const std::string& sql,
      CompletionCallback on_complete = nullptr) override;

  /// Submits a batch of entangled queries in one coordinator round —
  /// the group-submission path (friends booking together). All handles
  /// are returned in statement order; `on_complete` (optional) is
  /// registered on every handle. All-or-nothing: a statement that fails
  /// to parse or normalize rejects the whole batch before anything is
  /// registered.
  Result<std::vector<EntangledHandle>> SubmitBatch(
      const std::vector<std::string>& statements,
      CompletionCallback on_complete = nullptr) override;

  /// SubmitBatch with per-statement owner tags (`owners` empty = the
  /// client's owner for all; otherwise must match `statements` size).
  Result<std::vector<EntangledHandle>> SubmitBatchAs(
      const std::vector<std::string>& owners,
      const std::vector<std::string>& statements,
      CompletionCallback on_complete = nullptr) override;

  /// Runs any single statement, auto-detecting entangled queries.
  /// Entangled handles are tagged with the client's owner and tracked.
  Result<RunOutcome> Run(const std::string& sql) override;

  /// Async Run. The future resolves when the statement is processed:
  /// for a regular statement with its result, for an entangled one as
  /// soon as it is registered (the outcome carries the pending handle —
  /// consume completion via handle.Wait or handle.OnComplete, exactly
  /// as with the synchronous Run).
  std::future<Result<RunOutcome>> RunAsync(const std::string& sql) override;

  /// Handles of this client's not-yet-answered entangled queries.
  /// Completed handles are pruned on each call.
  std::vector<EntangledHandle> Outstanding() override;

  // WaitForAll: ClientInterface's default (Outstanding + Wait) applies.

  /// Withdraws all of this client's pending queries.
  Status CancelAll() override;

  /// The statements this client ran, in order (when recording is on).
  std::vector<std::string> History() const;

 private:
  /// Outstanding-handle tracking, shared (via shared_ptr) with
  /// in-flight async continuations so a continuation that runs after
  /// the Client is destroyed touches valid memory and is simply
  /// tracking for nobody.
  struct OutstandingSet {
    /// Rank kClient: Snapshot/Prune call EntangledHandle::Done(), which
    /// takes the handle-state mutex — so this orders before it.
    Mutex mu{LockRank::kClient, "client_outstanding"};
    std::vector<EntangledHandle> handles GUARDED_BY(mu);
    size_t prune_watermark GUARDED_BY(mu) = 16;

    /// Drops completed handles once the set crosses the watermark
    /// (amortized O(1) per Track).
    void PruneLocked() REQUIRES(mu);
    void Track(const EntangledHandle& handle);
    void TrackAll(const std::vector<EntangledHandle>& handles);
    /// Prunes and returns the still-pending handles.
    std::vector<EntangledHandle> Snapshot();
  };

  /// A StatementTask carrying this client's session, owner and retry
  /// policy.
  StatementTask MakeTask(StatementTask::Kind kind, const std::string& sql);

  void Record(const std::string& sql);

  Youtopia* db_;
  ClientOptions options_;
  const uint64_t session_id_ = ExecutorService::AllocateSessionId();
  std::shared_ptr<OutstandingSet> outstanding_ =
      std::make_shared<OutstandingSet>();
  mutable Mutex mu_{LockRank::kClient, "client_history"};
  std::vector<std::string> history_ GUARDED_BY(mu_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_SERVER_CLIENT_H_
