#ifndef YOUTOPIA_TXN_MVCC_H_
#define YOUTOPIA_TXN_MVCC_H_

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/mutex.h"

namespace youtopia {

/// Commit timestamp. Timestamps are issued by one MvccController per
/// engine; 0 is "no snapshot" (current reads) and versions loaded from
/// a checkpoint carry kBaseTs.
using Ts = uint64_t;

/// Transaction id (same alias as txn/lock_manager.h; redeclared here so
/// the storage layer can tag pending versions without pulling in the
/// lock manager).
using TxnId = uint64_t;

/// begin_ts of a version written by a transaction that has not yet
/// committed. Pending versions are invisible to every snapshot; the
/// writer's own current reads see them through the head of the chain.
inline constexpr Ts kPendingTs = ~Ts{0};

/// The timestamp committed versions start at (the clock's initial
/// value): everything present before the first commit is visible to
/// every snapshot.
inline constexpr Ts kBaseTs = 1;

/// Timestamp authority for MVCC (design decision #10): a monotonically
/// increasing commit clock, the set of commits currently stamping their
/// versions, and the set of open read snapshots.
///
/// The watermark protocol keeps multi-row commits atomic for lock-free
/// readers. BeginCommit() advances the clock and registers the new
/// timestamp as in flight; the writer then stamps its versions;
/// EndCommit() retires it and republishes the watermark as the largest
/// timestamp below every still-in-flight commit. Snapshots open at the
/// watermark, so a reader can never observe some rows of a commit
/// without the others — the commit's timestamp stays above the
/// watermark until every row is stamped.
///
/// LowWater() is the GC bound: the oldest timestamp any live snapshot
/// (or any snapshot opened from now on) can read at. Pruning keeps the
/// newest version at or below it plus everything newer, so GC never
/// reclaims a version a live snapshot can see.
class MvccController {
 public:
  MvccController() = default;
  MvccController(const MvccController&) = delete;
  MvccController& operator=(const MvccController&) = delete;

  /// Issues the next commit timestamp and marks it in flight.
  Ts BeginCommit() {
    MutexLock lock(mu_);
    const Ts ts = ++clock_;
    inflight_.insert(ts);
    return ts;
  }

  /// Retires `ts` and advances the watermark past every fully stamped
  /// commit.
  void EndCommit(Ts ts) {
    MutexLock lock(mu_);
    inflight_.erase(ts);
    watermark_ = inflight_.empty() ? clock_ : *inflight_.begin() - 1;
  }

  /// Registers a read snapshot at the current watermark. Must be paired
  /// with CloseSnapshot (SnapshotHandle does this).
  Ts OpenSnapshot() {
    MutexLock lock(mu_);
    const Ts ts = watermark_;
    snapshots_.insert(ts);
    return ts;
  }

  void CloseSnapshot(Ts ts) {
    MutexLock lock(mu_);
    auto it = snapshots_.find(ts);
    if (it != snapshots_.end()) snapshots_.erase(it);
  }

  /// Oldest timestamp any live or future snapshot can read at.
  Ts LowWater() const {
    MutexLock lock(mu_);
    return snapshots_.empty() ? watermark_
                              : std::min(watermark_, *snapshots_.begin());
  }

  Ts watermark() const {
    MutexLock lock(mu_);
    return watermark_;
  }

  Ts clock() const {
    MutexLock lock(mu_);
    return clock_;
  }

  size_t active_snapshots() const {
    MutexLock lock(mu_);
    return snapshots_.size();
  }

 private:
  mutable Mutex mu_{LockRank::kMvccClock, "mvcc_clock"};
  Ts clock_ GUARDED_BY(mu_) = kBaseTs;
  Ts watermark_ GUARDED_BY(mu_) = kBaseTs;
  /// Commit timestamps issued but not yet fully stamped.
  std::set<Ts> inflight_ GUARDED_BY(mu_);
  /// Open snapshot timestamps (multiset: many readers share one
  /// watermark value).
  std::multiset<Ts> snapshots_ GUARDED_BY(mu_);
};

/// RAII registration of one read snapshot. Default-constructed handles
/// are inert (ts() == 0, the "no snapshot" sentinel).
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  explicit SnapshotHandle(MvccController* controller)
      : controller_(controller),
        ts_(controller == nullptr ? 0 : controller->OpenSnapshot()) {}
  ~SnapshotHandle() { Release(); }

  SnapshotHandle(SnapshotHandle&& other) noexcept
      : controller_(other.controller_), ts_(other.ts_) {
    other.controller_ = nullptr;
    other.ts_ = 0;
  }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      Release();
      controller_ = other.controller_;
      ts_ = other.ts_;
      other.controller_ = nullptr;
      other.ts_ = 0;
    }
    return *this;
  }
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  Ts ts() const { return ts_; }
  bool valid() const { return controller_ != nullptr; }

  void Release() {
    if (controller_ != nullptr) {
      controller_->CloseSnapshot(ts_);
      controller_ = nullptr;
      ts_ = 0;
    }
  }

 private:
  MvccController* controller_ = nullptr;
  Ts ts_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_TXN_MVCC_H_
