#ifndef YOUTOPIA_TRAVEL_WORKLOAD_H_
#define YOUTOPIA_TRAVEL_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/status.h"
#include "travel/middle_tier.h"

namespace youtopia::travel {

/// Parameters of the closed-loop loaded-system workload (paper §3: "we
/// also demonstrate the scalability of our coordination algorithm by
/// allowing our examples to be run on a loaded system").
struct WorkloadConfig {
  uint64_t seed = 99;
  /// Concurrent session threads.
  int sessions = 8;
  /// Coordination requests per session.
  int requests_per_session = 50;
  /// Probability that a request is a group booking (else pairwise).
  double group_fraction = 0.2;
  /// Group size for group bookings.
  int group_size = 4;
  /// Probability that a pairwise request also coordinates a hotel.
  double hotel_fraction = 0.3;
  /// Per-request completion deadline.
  std::chrono::milliseconds deadline = std::chrono::milliseconds(10000);
};

/// Aggregate outcome of one workload run.
struct WorkloadReport {
  size_t submitted = 0;
  size_t satisfied = 0;
  size_t timed_out = 0;
  size_t errors = 0;
  /// Executor-service view of the run (pool-driven mode; zeros when the
  /// engine runs inline): pool size, tasks the pool executed for this
  /// run, lock-conflict requeues, the deepest the submission queue got,
  /// and the pool's busy fraction over the run.
  size_t workers = 0;
  size_t tasks_executed = 0;
  size_t lock_requeues = 0;
  size_t peak_queue_depth = 0;
  double worker_utilization = 0.0;
  /// Plan-cache activity during the run, as deltas over the run
  /// (embedded engine only; zeros for a remote backend or a disabled
  /// cache).
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  size_t plan_cache_evictions = 0;
  size_t plan_cache_invalidations = 0;
  /// WAL activity during the run, as deltas over the run (embedded
  /// engine with wal.enabled only; zeros otherwise). `wal_batch_mean`
  /// is records per group-commit flush over the run — the fsync
  /// amortization group commit bought.
  size_t wal_records = 0;
  size_t wal_fsyncs = 0;
  size_t wal_batches = 0;
  double wal_batch_mean = 0.0;
  size_t wal_checkpoints = 0;
  /// Submission-to-answer latency of satisfied requests.
  Histogram latency;
  /// Wall-clock duration of the whole run.
  uint64_t wall_micros = 0;

  double SatisfiedPerSecond() const {
    if (wall_micros == 0) return 0.0;
    return static_cast<double>(satisfied) * 1e6 /
           static_cast<double>(wall_micros);
  }

  std::string ToString() const;
};

/// Drives a randomized coordination workload against `db`: sessions
/// submit pairwise/group/hotel requests through an internal
/// TravelService (with a synthetic friend clique over the workload's
/// users). Every participant of a pair or group eventually submits, in
/// a shuffled interleaving across sessions, so requests complete unless
/// they exceed the deadline. The database must have been set up with
/// CreateTravelSchema + GenerateTravelData.
///
/// Two driving modes, chosen by the engine's executor-service pool:
/// with `num_workers == 0` each session is an OS thread submitting
/// synchronously (the seed's model); with a worker pool, ONE driver
/// thread packages every request as a `StatementTask` (per-session
/// FIFO domains preserved) and the pool executes them — the paper's
/// middle-tier shape, one network thread driving many sessions end to
/// end. Completion is consumed through parked OnComplete continuations
/// in both modes.
Result<WorkloadReport> RunLoadedWorkload(Youtopia* db,
                                         const std::string& dest,
                                         const WorkloadConfig& config);

/// Backend-agnostic form: the identical planned workload (same seed →
/// same requests in the same order) driven through any `ClientInterface`
/// — an in-process `Client` or a `net::RemoteClient` against a
/// `net::YoutopiaServer`. This is what makes backend parity testable:
/// run the same config in-process and over loopback and compare
/// outcomes. Sessions are OS threads submitting synchronously (the
/// engine-side executor pool still parallelizes remote statements);
/// coordinator/executor counters in the report are zero, since a remote
/// backend does not expose engine internals.
Result<WorkloadReport> RunLoadedWorkload(ClientInterface* client,
                                         const std::string& dest,
                                         const WorkloadConfig& config);

}  // namespace youtopia::travel

#endif  // YOUTOPIA_TRAVEL_WORKLOAD_H_
