#ifndef YOUTOPIA_WAL_WAL_MANAGER_H_
#define YOUTOPIA_WAL_WAL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "wal/wal_record.h"

namespace youtopia::wal {

/// Log sequence number: a monotone per-record counter. LSN n is durable
/// once every record up to n has reached disk (or been superseded by a
/// checkpoint that contains its effects).
using Lsn = uint64_t;

struct WalConfig {
  /// Off by default: the seed's in-memory semantics, byte for byte.
  bool enabled = false;
  /// Directory holding segments + checkpoint. Created on Open.
  std::string dir;
  /// Rotate to a new segment once the current one exceeds this.
  size_t segment_bytes = 16u << 20;
  /// Log volume after which an automatic checkpoint is worth taking.
  size_t checkpoint_bytes = 64u << 20;
  /// Turn off to skip fsync syscalls (tests; durability = process
  /// lifetime only).
  bool fsync = true;
  /// Take a final checkpoint in ~Youtopia so restart replays nothing.
  bool checkpoint_on_shutdown = true;
};

/// Counters for the admin "-- WAL --" section and WorkloadReport.
struct WalStats {
  size_t records_appended = 0;
  uint64_t bytes_appended = 0;
  size_t syncs = 0;
  size_t fsyncs = 0;
  size_t group_commit_batches = 0;
  /// Records per leader flush — the amortization group commit buys.
  Histogram batch_records;
  size_t checkpoints = 0;
  size_t segments_created = 0;
  size_t segments_deleted = 0;
  size_t recovered_records = 0;
  uint64_t recovery_micros = 0;
};

/// Segmented write-ahead log with group commit, checkpointing and
/// crash-consistent recovery (design decision #8).
///
/// On-disk layout under `config.dir`:
///   wal-<seq>.log   record segments, each record framed as
///                   u32 length | u32 crc32(payload) | payload
///   checkpoint      one framed CheckpointState (written via tmp+rename)
///
/// Startup protocol: Open() → checkpoint() → Replay(apply) →
/// OpenForAppend(), after which Append/Sync are live. A torn tail
/// (partial final record, detected by length/CRC) is truncated by
/// OpenForAppend — it can only be an unacknowledged commit.
class WalManager {
 public:
  explicit WalManager(WalConfig config);
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Creates the directory, loads the checkpoint (if any) and scans
  /// segments. Deletes segments the last checkpoint made unreachable.
  Status Open();

  /// The checkpoint loaded by Open, if one exists.
  const std::optional<CheckpointState>& checkpoint() const {
    return checkpoint_;
  }

  /// Iterates every valid post-checkpoint record in log order. Stops at
  /// the first invalid frame (torn tail). An `apply` error aborts
  /// replay and is returned.
  Status Replay(const std::function<Status(const WalRecord&)>& apply);

  /// Truncates the torn tail found by Replay and opens the final
  /// segment for appending. Must follow Replay (or Open when the log is
  /// fresh).
  Status OpenForAppend();

  /// Buffers one record and assigns its LSN (group commit, design
  /// decision #8: Sync flushes every buffered record with one fsync).
  /// Durability is only guaranteed after Sync(lsn) returns OK.
  Result<Lsn> Append(const WalRecord& record);

  /// Runs `action` and, on success, appends `record`, atomically with
  /// respect to every other append. DDL uses this: it takes no 2PL
  /// locks, so only append-mutex exclusion can keep its log position
  /// consistent with its execution order against concurrent DML.
  Result<Lsn> AppendSerialized(const std::function<Status()>& action,
                               const WalRecord& record);

  /// Blocks until `lsn` is durable. Group-commit leader/follower: the
  /// first waiter flushes everything buffered with one fsync; waiters
  /// that arrive mid-flush are batched into the next one.
  Status Sync(Lsn lsn);

  /// Sync up to the last appended record.
  Status SyncAll();

  /// True once the post-checkpoint log volume exceeds
  /// config.checkpoint_bytes.
  bool ShouldCheckpoint() const;

  /// Writes `state` as the new checkpoint: flushes buffered records,
  /// rotates to a fresh segment, writes checkpoint.tmp, fsyncs, renames
  /// over `checkpoint`, then deletes the now-unreachable segments. The
  /// caller must hold the engine quiescent (the snapshot must be
  /// consistent with everything appended so far).
  Status WriteCheckpoint(CheckpointState state);

  WalStats stats() const;

  /// Test-only: simulates losing the process — every buffered
  /// (unsynced) record is discarded and all further operations fail.
  /// Files already written stay as a real crash would leave them.
  void SimulateCrash();

  /// Points inside a group-commit flush where a test hook may inject a
  /// crash: before any byte is written (batch lost), after half the
  /// batch (torn record on disk), or after the write but before fsync
  /// (records on disk but never acknowledged).
  enum class CrashPoint { kBeforeWrite, kMidWrite, kBeforeFsync };

  /// Test-only: `hook` runs at each CrashPoint during flushes;
  /// returning true triggers SimulateCrash semantics at that point.
  void SetCrashHook(std::function<bool(CrashPoint)> hook);

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

 private:
  std::string SegmentPath(uint64_t seq) const;
  Status OpenSegmentLocked(uint64_t seq);
  Status RotateIfNeededLocked(size_t incoming_bytes);
  /// Writes `batch` to the current segment and fsyncs; honors `hook`.
  /// Owns only fd/segment state (callers update durable_lsn_ under mu_).
  Status FlushBatch(const std::string& batch, size_t batch_records,
                    const std::function<bool(CrashPoint)>& hook);
  Result<Lsn> AppendLocked(const WalRecord& record) REQUIRES(mu_);
  Status CrashedError() const;
  static std::string EncodeFrame(const WalRecord& record);

  const WalConfig config_;

  /// Rank kWal: AppendSerialized runs DDL actions (catalog + storage
  /// mutations) while holding mu_, so kWal orders BEFORE the storage
  /// and catalog latches. The 2PL lock manager's internal mutex never
  /// nests with mu_ in either direction — LockManager calls return
  /// before any WAL call and vice versa.
  mutable Mutex mu_{LockRank::kWal, "wal"};
  CondVar cv_;
  std::string pending_ GUARDED_BY(mu_);  ///< Encoded frames not yet written.
  size_t pending_records_ GUARDED_BY(mu_) = 0;
  Lsn appended_lsn_ GUARDED_BY(mu_) = 0;
  Lsn durable_lsn_ GUARDED_BY(mu_) = 0;
  bool flush_in_progress_ GUARDED_BY(mu_) = false;
  Status io_error_ GUARDED_BY(mu_) = Status::OK();
  std::function<bool(CrashPoint)> crash_hook_ GUARDED_BY(mu_);
  std::atomic<bool> crashed_{false};

  // Segment file state. Mutated only by the single active flusher
  // (flush_in_progress_) or under mu_ in single-threaded phases.
  int fd_ = -1;
  uint64_t current_seq_ = 0;
  size_t current_segment_bytes_ = 0;
  bool open_for_append_ = false;

  // Populated by Open/Replay.
  std::optional<CheckpointState> checkpoint_;
  std::vector<uint64_t> segments_;   ///< Sorted live segment seqs.
  uint64_t tail_seq_ = 0;            ///< Where Replay stopped.
  size_t tail_offset_ = 0;           ///< Valid bytes in tail segment.

  // Counters (atomics: flushers update them outside mu_).
  std::atomic<size_t> records_appended_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  std::atomic<size_t> syncs_{0};
  std::atomic<size_t> fsyncs_{0};
  std::atomic<size_t> group_commit_batches_{0};
  Histogram batch_records_;
  std::atomic<size_t> checkpoints_{0};
  std::atomic<size_t> segments_created_{0};
  std::atomic<size_t> segments_deleted_{0};
  std::atomic<size_t> recovered_records_{0};
  std::atomic<uint64_t> recovery_micros_{0};
};

}  // namespace youtopia::wal

#endif  // YOUTOPIA_WAL_WAL_MANAGER_H_
