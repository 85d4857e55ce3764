#ifndef YOUTOPIA_COMMON_MUTEX_H_
#define YOUTOPIA_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis annotations (design decision #9).
//
// These macros attach capability annotations to mutexes, guarded members
// and locking functions so `clang -Wthread-safety` turns the codebase's
// lock discipline into compile errors. They expand to nothing on other
// compilers (gcc builds are unaffected). The names follow the modern
// capability spelling used by Abseil and the Clang documentation.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define YOUTOPIA_TS_ATTR(x) __attribute__((x))
#else
#define YOUTOPIA_TS_ATTR(x)  // no-op outside Clang
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) YOUTOPIA_TS_ATTR(capability(x))
#endif

#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY YOUTOPIA_TS_ATTR(scoped_lockable)
#endif

#ifndef GUARDED_BY
#define GUARDED_BY(x) YOUTOPIA_TS_ATTR(guarded_by(x))
#endif

#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) YOUTOPIA_TS_ATTR(pt_guarded_by(x))
#endif

#ifndef ACQUIRE
#define ACQUIRE(...) YOUTOPIA_TS_ATTR(acquire_capability(__VA_ARGS__))
#endif

#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) \
  YOUTOPIA_TS_ATTR(acquire_shared_capability(__VA_ARGS__))
#endif

#ifndef RELEASE
#define RELEASE(...) YOUTOPIA_TS_ATTR(release_capability(__VA_ARGS__))
#endif

#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) \
  YOUTOPIA_TS_ATTR(release_shared_capability(__VA_ARGS__))
#endif

#ifndef RELEASE_GENERIC
#define RELEASE_GENERIC(...) \
  YOUTOPIA_TS_ATTR(release_generic_capability(__VA_ARGS__))
#endif

#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) YOUTOPIA_TS_ATTR(try_acquire_capability(__VA_ARGS__))
#endif

#ifndef REQUIRES
#define REQUIRES(...) YOUTOPIA_TS_ATTR(requires_capability(__VA_ARGS__))
#endif

#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  YOUTOPIA_TS_ATTR(requires_shared_capability(__VA_ARGS__))
#endif

#ifndef EXCLUDES
#define EXCLUDES(...) YOUTOPIA_TS_ATTR(locks_excluded(__VA_ARGS__))
#endif

#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) YOUTOPIA_TS_ATTR(assert_capability(x))
#endif

#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) YOUTOPIA_TS_ATTR(lock_returned(x))
#endif

#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS YOUTOPIA_TS_ATTR(no_thread_safety_analysis)
#endif

namespace youtopia {

// ---------------------------------------------------------------------------
// Lock ranks.
//
// Every Mutex/SharedMutex is constructed with a rank, and the debug
// validator enforces that a thread only ever acquires locks in strictly
// increasing rank order; taking a second mutex of a rank already held
// is a violation too. The enum below IS the system's global lock order;
// DESIGN.md carries the same table with the nesting paths that pin each
// edge. Gaps between values leave room for future subsystems.
//
// Outermost (acquired first, lowest value) to innermost:
// ---------------------------------------------------------------------------
enum class LockRank : uint16_t {
  /// Exempt from rank checking entirely. For mutexes whose acquisition
  /// genuinely cannot be ordered (none in src/ today; tests and
  /// scaffolding only). Never holds another exemption from review: a
  /// new kUnranked mutex needs a DESIGN.md justification.
  kUnranked = 0,

  /// Travel workload driver / bench-harness tracker state; held while
  /// calling into the whole engine stack.
  kWorkloadDriver = 10,
  /// ExecutorService::mu_ (submission queue + sessions). Never held
  /// while a statement executes — workers drop it before Attempt().
  kExecutorService = 20,
  /// net::YoutopiaServer::mu_ (connection table, lifecycle).
  kNetServer = 30,
  /// net::MetricsExporter::mu_ (listener lifecycle only; the render
  /// callback runs with no exporter lock held, so engine stats reads
  /// nest freely). Started/stopped under kNetServer, hence above it.
  kMetricsExporter = 34,
  /// net::YoutopiaServer shared stats block (nested under kNetServer).
  kNetServerStats = 40,
  /// net::RemoteClient::mu_ (in-flight requests, pending handles).
  kRemoteClient = 50,
  /// net::RemoteClient completion-dispatch queue mutex.
  kRemoteClientCompletion = 54,
  /// net::RemoteClient / server Connection serialized-write mutexes.
  kConnectionWrite = 58,
  /// Client facade state (history, outstanding-handle set).
  kClient = 70,
  /// Coordinator::mu_ (pending pool, matcher, install transactions).
  kCoordinator = 80,
  /// wal::WalManager::mu_. Above kCoordinator (the coordinator journal
  /// appends with its mutex held) and below the storage ranks (DDL
  /// executes inside AppendSerialized's critical section).
  kWal = 110,
  /// LockManager::mu_ (2PL table-lock state; acquired during installs
  /// with the coordinator mutex held).
  kLockManager = 120,
  /// MvccController::mu_ (commit clock, in-flight commit set, active
  /// snapshots). A leaf in practice: commit stamping calls it strictly
  /// before taking kStorageTables and again strictly after releasing
  /// it, and snapshot open/close hold nothing else.
  kMvccClock = 125,
  /// StorageEngine::tables_mu_ (table map + per-table index maps).
  kStorageTables = 130,
  /// Catalog::mu_ (schema metadata; taken inside DDL under kWal).
  kCatalog = 140,
  /// HeapTable::latch_ (row slots; under kStorageTables).
  kHeapTable = 150,
  /// HashIndex::latch_ (postings; under kStorageTables).
  kHashIndex = 160,
  /// PlanCache::mu_ (LRU + counters; prepare path holds nothing else).
  kPlanCache = 170,
  /// EntangledHandle::State::mu — completed with the coordinator mutex
  /// held; callbacks always fire after it is released.
  kHandleState = 180,
  /// travel::NotificationBus::mu_ (published from completion
  /// callbacks, no engine locks held).
  kNotificationBus = 190,
  /// Histogram::mu_ and other terminal counters: never held across any
  /// other acquisition.
  kHistogram = 200,
  /// Default for helpers with no interior calls.
  kLeaf = 250,
};

namespace lockrank {

/// Validates one acquisition against the calling thread's held set and
/// records it. Aborts (after printing the held-lock list and the
/// attempted acquisition) when `rank` is not above every held rank.
/// No-op when rank checking is compiled out or disabled via
/// YOUTOPIA_LOCK_RANK_CHECKS=0 in the environment.
void NoteAcquire(const void* mutex, uint16_t rank, const char* name,
                 bool shared);

/// Removes `mutex` from the thread's held set (most recent entry).
void NoteRelease(const void* mutex);

/// True when the calling thread's held set contains `mutex`. Always
/// true when rank checking is compiled out or disabled (callers use it
/// only in assertions).
bool Held(const void* mutex);

/// True when the validator is compiled in and enabled.
bool ChecksEnabled();

}  // namespace lockrank

/// Exclusive mutex with a capability annotation and a lock rank
/// (design decision #9). Drop-in ordering-checked replacement for
/// std::mutex: Lock/Unlock validate rank order in debug/test builds and
/// the CAPABILITY annotation lets clang's thread safety analysis check
/// GUARDED_BY members at compile time.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name = "mutex")
      : rank_(static_cast<uint16_t>(rank)), name_(name) {}
  Mutex() : Mutex(LockRank::kLeaf) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::NoteAcquire(this, rank_, name_, /*shared=*/false);
    mu_.lock();
  }

  void Unlock() RELEASE() {
    mu_.unlock();
    lockrank::NoteRelease(this);
  }

  [[nodiscard]] bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A successful try-lock joined the held set; record it so later
    // acquisitions are validated against it. (An out-of-rank try-lock
    // that *succeeds* is still reported: mixed try/blocking cycles
    // deadlock just as well.)
    lockrank::NoteAcquire(this, rank_, name_, /*shared=*/false);
    return true;
  }

  /// Debug assertion that the calling thread holds this mutex —
  /// documents (and, with rank checks on, verifies) a "caller locks"
  /// contract at runtime, complementing the static REQUIRES annotation.
  void AssertHeld() const ASSERT_CAPABILITY(this);

  LockRank rank() const { return static_cast<LockRank>(rank_); }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const uint16_t rank_;
  const char* const name_;
};

/// Reader/writer mutex with the same capability + rank treatment.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name = "shared_mutex")
      : rank_(static_cast<uint16_t>(rank)), name_(name) {}
  SharedMutex() : SharedMutex(LockRank::kLeaf) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    lockrank::NoteAcquire(this, rank_, name_, /*shared=*/false);
    mu_.lock();
  }

  void Unlock() RELEASE() {
    mu_.unlock();
    lockrank::NoteRelease(this);
  }

  void LockShared() ACQUIRE_SHARED() {
    lockrank::NoteAcquire(this, rank_, name_, /*shared=*/true);
    mu_.lock_shared();
  }

  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
    lockrank::NoteRelease(this);
  }

  void AssertHeld() const ASSERT_CAPABILITY(this);

  LockRank rank() const { return static_cast<LockRank>(rank_); }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const uint16_t rank_;
  const char* const name_;
};

/// Scoped exclusive lock (std::lock_guard replacement) that clang's
/// analysis can follow, including early Unlock()/re-Lock() — the WAL
/// group-commit leader drops the mutex around its fsync this way.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (owned_) mu_.Unlock();
  }

  /// Early release; the destructor becomes a no-op until Lock().
  void Unlock() RELEASE() {
    mu_.Unlock();
    owned_ = false;
  }

  /// Re-acquire after an early Unlock().
  void Lock() ACQUIRE() {
    mu_.Lock();
    owned_ = true;
  }

 private:
  Mutex& mu_;
  bool owned_ = true;
};

/// Scoped exclusive lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(const SharedMutex& mu) ACQUIRE_SHARED(mu)
      : mu_(const_cast<SharedMutex&>(mu)) {
    mu_.LockShared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() RELEASE() { mu_.UnlockShared(); }

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to youtopia::Mutex. Wait() takes the Mutex
/// itself (not a lock object) so call sites annotate cleanly: the
/// caller provably holds `mu` (REQUIRES), and the wait releases and
/// re-acquires the underlying std::mutex directly. The rank validator's
/// held-set deliberately keeps the mutex across the wait: the thread is
/// blocked until it holds the lock again, so the conservative view is
/// accurate whenever the thread runs.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner, std::move(pred));
    inner.release();
  }

  /// Returns pred() at wake-up (false = timed out with pred false).
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
               Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(inner, timeout, std::move(pred));
    inner.release();
    return satisfied;
  }

  /// No-predicate timed wait, for waiters whose wake condition involves
  /// re-deriving a deadline (the executor's backoff heap).
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(inner, deadline);
    inner.release();
    return status;
  }

  template <typename Clock, typename Duration, typename Pred>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Pred pred) REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_until(inner, deadline, std::move(pred));
    inner.release();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_COMMON_MUTEX_H_
