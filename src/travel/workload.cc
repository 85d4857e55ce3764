#include "travel/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/string_util.h"

namespace youtopia::travel {

std::string WorkloadReport::ToString() const {
  std::string out = StringPrintf(
      "submitted=%zu satisfied=%zu timed_out=%zu errors=%zu "
      "throughput=%.1f satisfied/s latency{%s}",
      submitted, satisfied, timed_out, errors, SatisfiedPerSecond(),
      latency.ToString().c_str());
  if (workers > 0) {
    out += StringPrintf(
        " executor{workers=%zu executed=%zu requeues=%zu peak_queue=%zu "
        "utilization=%.1f%%}",
        workers, tasks_executed, lock_requeues, peak_queue_depth,
        worker_utilization * 100.0);
  }
  if (plan_cache_hits + plan_cache_misses > 0) {
    out += StringPrintf(
        " plan_cache{hits=%zu misses=%zu hit_rate=%.1f%% evictions=%zu "
        "invalidations=%zu}",
        plan_cache_hits, plan_cache_misses,
        100.0 * static_cast<double>(plan_cache_hits) /
            static_cast<double>(plan_cache_hits + plan_cache_misses),
        plan_cache_evictions, plan_cache_invalidations);
  }
  if (wal_records > 0) {
    out += StringPrintf(
        " wal{records=%zu fsyncs=%zu batches=%zu batch_mean=%.1f "
        "checkpoints=%zu}",
        wal_records, wal_fsyncs, wal_batches, wal_batch_mean,
        wal_checkpoints);
  }
  return out;
}

namespace {

/// One request a session will submit.
struct PlannedRequest {
  TravelRequest request;
};

/// Expands the workload's coordination units (pairs and groups) into
/// per-member requests and shuffles them so that partners land on
/// different sessions at different times.
std::vector<PlannedRequest> PlanRequests(const std::string& dest,
                                         const WorkloadConfig& config,
                                         FriendGraph* graph) {
  Random rng(config.seed);
  std::vector<PlannedRequest> planned;
  const int total_requests = config.sessions * config.requests_per_session;

  int unit = 0;
  while (static_cast<int>(planned.size()) < total_requests) {
    const bool group =
        rng.NextDouble() < config.group_fraction && config.group_size > 2;
    const int members = group ? config.group_size : 2;
    std::vector<std::string> users;
    users.reserve(members);
    for (int m = 0; m < members; ++m) {
      users.push_back("wl" + std::to_string(unit) + "_" + std::to_string(m));
    }
    for (size_t i = 0; i < users.size(); ++i) {
      graph->AddUser(users[i]);
      for (size_t j = i + 1; j < users.size(); ++j) {
        graph->AddFriendship(users[i], users[j]);
      }
    }
    const bool hotel = !group && rng.NextDouble() < config.hotel_fraction;
    for (size_t i = 0; i < users.size(); ++i) {
      PlannedRequest pr;
      pr.request.user = users[i];
      for (size_t j = 0; j < users.size(); ++j) {
        if (i == j) continue;
        pr.request.flight_companions.push_back(users[j]);
        if (hotel) pr.request.hotel_companions.push_back(users[j]);
      }
      pr.request.dest = dest;
      pr.request.want_hotel = hotel;
      planned.push_back(std::move(pr));
    }
    ++unit;
  }

  // Fisher-Yates shuffle for cross-session interleaving.
  for (size_t i = planned.size(); i > 1; --i) {
    std::swap(planned[i - 1], planned[rng.NextBelow(i)]);
  }
  return planned;
}

}  // namespace

namespace {

/// Completion accounting shared between OnComplete callbacks and the
/// driver. Held via shared_ptr by every callback so a coordination that
/// completes after the workload returns (the caller keeps using the
/// database) touches valid memory and is simply ignored.
struct CompletionTracker {
  /// Rank kWorkloadDriver: accounting calls handle accessors (rank
  /// kHandleState) and the latency histogram under mu, both of which
  /// rank far above it.
  Mutex mu{LockRank::kWorkloadDriver, "workload_tracker"};
  CondVar cv;
  size_t satisfied GUARDED_BY(mu) = 0;
  /// Terminal but not OK (cancelled/expired).
  size_t failed GUARDED_BY(mu) = 0;
  Histogram latency GUARDED_BY(mu);
  /// Report taken; ignore late completions.
  bool closed GUARDED_BY(mu) = false;
};

/// The driving core shared by both public overloads: submits `planned`
/// through `service` and accounts completions. `db` is the embedded
/// engine when there is one (enables the pool-driven single-thread mode
/// and the coordinator/executor counters in the report) and nullptr for
/// a remote backend.
Result<WorkloadReport> DriveWorkload(TravelService* service, Youtopia* db,
                                     const std::vector<PlannedRequest>& planned,
                                     const WorkloadConfig& config) {
  TravelService& svc = *service;
  WorkloadReport report;
  std::atomic<size_t> errors{0};
  auto tracker = std::make_shared<CompletionTracker>();

  // Shared completion accounting for both driving modes: `done` is the
  // terminal handle of one coordination, or nullptr for a request that
  // failed before registration (parse/normalize error) — counted as a
  // failure. One function so the two modes can never drift.
  auto account = [tracker](std::chrono::steady_clock::time_point submitted_at,
                           const EntangledHandle* done) {
    MutexLock lock(tracker->mu);
    if (tracker->closed) return;
    const Status outcome =
        done != nullptr ? done->Outcome().value_or(Status::OK())
                        : Status::Aborted("failed before registration");
    if (outcome.ok()) {
      ++tracker->satisfied;
      const auto end =
          done->CompletedAt().value_or(std::chrono::steady_clock::now());
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(end -
                                                                submitted_at)
              .count();
      tracker->latency.Record(micros < 0 ? 0 : static_cast<uint64_t>(micros));
    } else {
      ++tracker->failed;
    }
    tracker->cv.NotifyAll();
  };

  ExecutorService* exec = db != nullptr ? &db->executor_service() : nullptr;
  const ExecutorService::Stats exec_before =
      exec != nullptr ? exec->stats() : ExecutorService::Stats{};
  const PlanCache::Stats cache_before =
      db != nullptr ? db->plan_cache().stats() : PlanCache::Stats{};
  const wal::WalStats wal_before = db != nullptr && db->wal() != nullptr
                                       ? db->wal()->stats()
                                       : wal::WalStats{};
  const auto start = std::chrono::steady_clock::now();

  if (exec != nullptr && exec->num_workers() > 0) {
    // Pool-driven mode: this one thread plays the middle tier's network
    // thread. Each logical session is a FIFO domain in the executor
    // service; the pool provides the parallelism, and every completion
    // is a parked continuation — no thread anywhere waits per request.
    std::vector<uint64_t> session_ids(config.sessions);
    for (auto& id : session_ids) id = ExecutorService::AllocateSessionId();
    for (size_t i = 0; i < planned.size(); ++i) {
      const auto submitted_at = std::chrono::steady_clock::now();
      Status admitted = svc.SubmitRequestAsync(
          planned[i].request,
          session_ids[i % static_cast<size_t>(config.sessions)],
          [account, submitted_at](Result<RunOutcome> outcome) {
            const EntangledHandle* done =
                outcome.ok() && outcome->handle.has_value()
                    ? &*outcome->handle
                    : nullptr;
            account(submitted_at, done);
          });
      if (!admitted.ok()) ++errors;
    }
  } else {
    // Inline mode: one OS thread per session submitting synchronously —
    // the seed's model, kept as the num_workers == 0 baseline.
    std::vector<std::thread> sessions;
    sessions.reserve(config.sessions);
    for (int s = 0; s < config.sessions; ++s) {
      sessions.emplace_back([&, s] {
        // Round-robin assignment of the shuffled plan. Completion is
        // consumed through OnComplete callbacks registered at
        // submission: no session thread ever parks in Wait per
        // outstanding handle.
        for (size_t i = s; i < planned.size();
             i += static_cast<size_t>(config.sessions)) {
          const auto submitted_at = std::chrono::steady_clock::now();
          auto handle = svc.SubmitRequest(planned[i].request);
          if (!handle.ok()) {
            ++errors;
            continue;
          }
          handle->OnComplete([account, submitted_at](
                                 const EntangledHandle& done) {
            account(submitted_at, &done);
          });
        }
      });
    }
    for (auto& t : sessions) t.join();
  }

  // Event-driven tail: sleep until the callbacks have accounted for
  // every submission or the deadline passes.
  const size_t target = planned.size() - errors.load();
  {
    MutexLock lock(tracker->mu);
    tracker->cv.WaitFor(tracker->mu, config.deadline, [&] {
      return tracker->satisfied + tracker->failed >= target;
    });
    tracker->closed = true;
    report.satisfied = tracker->satisfied;
    report.timed_out = target - tracker->satisfied - tracker->failed;
    report.errors = errors.load() + tracker->failed;
    report.latency.Merge(tracker->latency);
  }

  report.wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  report.submitted = planned.size();
  if (db != nullptr) {
    const PlanCache::Stats cache_after = db->plan_cache().stats();
    report.plan_cache_hits = cache_after.hits - cache_before.hits;
    report.plan_cache_misses = cache_after.misses - cache_before.misses;
    report.plan_cache_evictions =
        cache_after.evictions - cache_before.evictions;
    report.plan_cache_invalidations =
        cache_after.invalidations - cache_before.invalidations;
    if (db->wal() != nullptr) {
      const wal::WalStats wal_after = db->wal()->stats();
      report.wal_records =
          wal_after.records_appended - wal_before.records_appended;
      report.wal_fsyncs = wal_after.fsyncs - wal_before.fsyncs;
      report.wal_batches =
          wal_after.group_commit_batches - wal_before.group_commit_batches;
      // Mean records per flush over this run's batches alone.
      if (report.wal_batches > 0) {
        const double sum_after = wal_after.batch_records.mean() *
                                 static_cast<double>(
                                     wal_after.batch_records.count());
        const double sum_before = wal_before.batch_records.mean() *
                                  static_cast<double>(
                                      wal_before.batch_records.count());
        report.wal_batch_mean =
            (sum_after - sum_before) / static_cast<double>(report.wal_batches);
      }
      report.wal_checkpoints = wal_after.checkpoints - wal_before.checkpoints;
    }
  }
  if (exec != nullptr) {
    if (exec->num_workers() > 0) {
      // The tracker can observe the last coordination (a parked
      // continuation fires mid-registration) a hair before the worker
      // books that task's completion; drain so the executor counters
      // cover every task of the run.
      (void)exec->Drain(config.deadline);
    }
    const ExecutorService::Stats exec_after = exec->stats();
    report.workers = exec_after.workers;
    report.tasks_executed = exec_after.executed - exec_before.executed;
    report.lock_requeues =
        exec_after.lock_requeues - exec_before.lock_requeues;
    // Peak is a service-lifetime high-water mark (a monotone max cannot
    // be delta'd); on a fresh engine it is this run's peak.
    report.peak_queue_depth = exec_after.peak_queue_depth;
    // Utilization over *this run*: busy and uptime deltas, not the
    // service's lifetime averages (setup scripts would dilute them).
    const uint64_t busy_delta =
        exec_after.busy_micros - exec_before.busy_micros;
    const uint64_t uptime_delta =
        exec_after.uptime_micros - exec_before.uptime_micros;
    if (exec_after.workers > 0 && uptime_delta > 0) {
      report.worker_utilization =
          std::min(1.0, static_cast<double>(busy_delta) /
                            (static_cast<double>(exec_after.workers) *
                             static_cast<double>(uptime_delta)));
    }
  }
  return report;
}

}  // namespace

Result<WorkloadReport> RunLoadedWorkload(Youtopia* db,
                                         const std::string& dest,
                                         const WorkloadConfig& config) {
  if (config.sessions < 1 || config.requests_per_session < 1) {
    return Status::InvalidArgument("workload needs >= 1 session and request");
  }
  FriendGraph graph;
  auto planned = PlanRequests(dest, config, &graph);
  TravelService service(db, std::move(graph), nullptr);
  return DriveWorkload(&service, db, planned, config);
}

Result<WorkloadReport> RunLoadedWorkload(ClientInterface* client,
                                         const std::string& dest,
                                         const WorkloadConfig& config) {
  if (config.sessions < 1 || config.requests_per_session < 1) {
    return Status::InvalidArgument("workload needs >= 1 session and request");
  }
  FriendGraph graph;
  auto planned = PlanRequests(dest, config, &graph);
  TravelService service(client, std::move(graph), nullptr);
  return DriveWorkload(&service, /*db=*/nullptr, planned, config);
}

}  // namespace youtopia::travel
