#include "common/mutex.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

// The runtime lock-rank validator (design decision #9). Compiled in by
// default; -DYOUTOPIA_LOCK_RANK_CHECKS=0 (CMake option OFF) strips it
// for perf-measurement builds. When compiled in, the environment
// variable YOUTOPIA_LOCK_RANK_CHECKS=0 disables it at process start
// without a rebuild.
#ifndef YOUTOPIA_LOCK_RANK_CHECKS
#define YOUTOPIA_LOCK_RANK_CHECKS 1
#endif

namespace youtopia {
namespace lockrank {

#if YOUTOPIA_LOCK_RANK_CHECKS

namespace {

struct HeldLock {
  const void* mutex;
  uint16_t rank;
  const char* name;
  bool shared;
};

/// The calling thread's currently-held ranked locks, in acquisition
/// order. Deliberately a plain vector: depth is small (the deepest
/// stack in the system is coordinator + install + storage, about ten
/// entries), so linear scans beat any map.
std::vector<HeldLock>& HeldList() {
  thread_local std::vector<HeldLock> held = [] {
    std::vector<HeldLock> v;
    v.reserve(16);
    return v;
  }();
  return held;
}

bool Enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("YOUTOPIA_LOCK_RANK_CHECKS");
    return env == nullptr || std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

[[noreturn]] void ReportViolationAndAbort(const std::vector<HeldLock>& held,
                                          const HeldLock& attempt) {
  // stderr + abort rather than the logging layer: the process state is
  // one acquisition away from a potential deadlock, and death tests
  // match on this output.
  std::fprintf(stderr,
               "\n=== LOCK RANK VIOLATION ===\n"
               "thread attempted to acquire %s lock \"%s\" "
               "(rank %u, %p)\n"
               "while holding, in acquisition order:\n",
               attempt.shared ? "shared" : "exclusive", attempt.name,
               attempt.rank, attempt.mutex);
  for (const HeldLock& h : held) {
    std::fprintf(stderr, "  - \"%s\" (rank %u, %p%s)\n", h.name, h.rank,
                 h.mutex, h.shared ? ", shared" : "");
  }
  std::fprintf(stderr,
               "locks must be acquired in strictly increasing rank order; "
               "see the LockRank table in common/mutex.h and DESIGN.md.\n");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void NoteAcquire(const void* mutex, uint16_t rank, const char* name,
                 bool shared) {
  if (!Enabled()) return;
  std::vector<HeldLock>& held = HeldList();
  const HeldLock attempt{mutex, rank, name, shared};
  if (rank != static_cast<uint16_t>(LockRank::kUnranked)) {
    for (const HeldLock& h : held) {
      if (h.rank == static_cast<uint16_t>(LockRank::kUnranked)) continue;
      if (h.rank >= rank) {
        ReportViolationAndAbort(held, attempt);
      }
    }
  }
  held.push_back(attempt);
}

void NoteRelease(const void* mutex) {
  if (!Enabled()) return;
  std::vector<HeldLock>& held = HeldList();
  // Most-recent first: releases overwhelmingly run in LIFO order.
  for (size_t i = held.size(); i-- > 0;) {
    if (held[i].mutex == mutex) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

bool Held(const void* mutex) {
  if (!Enabled()) return true;
  for (const HeldLock& h : HeldList()) {
    if (h.mutex == mutex) return true;
  }
  return false;
}

bool ChecksEnabled() { return Enabled(); }

#else  // !YOUTOPIA_LOCK_RANK_CHECKS

void NoteAcquire(const void*, uint16_t, const char*, bool) {}
void NoteRelease(const void*) {}
bool Held(const void*) { return true; }
bool ChecksEnabled() { return false; }

#endif  // YOUTOPIA_LOCK_RANK_CHECKS

}  // namespace lockrank

void Mutex::AssertHeld() const {
  if (lockrank::ChecksEnabled() && !lockrank::Held(this)) {
    std::fprintf(stderr,
                 "=== LOCK ASSERTION FAILED ===\n"
                 "AssertHeld: \"%s\" (rank %u, %p) is not held by this "
                 "thread\n",
                 name_, rank_, static_cast<const void*>(this));
    std::fflush(stderr);
    std::abort();
  }
}

void SharedMutex::AssertHeld() const {
  if (lockrank::ChecksEnabled() && !lockrank::Held(this)) {
    std::fprintf(stderr,
                 "=== LOCK ASSERTION FAILED ===\n"
                 "AssertHeld: \"%s\" (rank %u, %p) is not held by this "
                 "thread\n",
                 name_, rank_, static_cast<const void*>(this));
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace youtopia
