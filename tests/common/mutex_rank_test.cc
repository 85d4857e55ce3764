// Runtime lock-rank validator coverage (design decision #9): in-order
// acquisition passes, out-of-order and same-rank acquisition abort with
// the held-lock report, AssertHeld catches missing locks, and a
// flight+hotel coordination — the deepest real lock stack in the
// system — runs clean under the validator.

#include "common/mutex.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "entangle/coordinator.h"
#include "entangle/normalizer.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"
#include "txn/txn_manager.h"

namespace youtopia {
namespace {

// Death tests fork; the abort happens in the child, so the parent's
// lock state is untouched. Skip them when the validator is disabled
// (env YOUTOPIA_LOCK_RANK_CHECKS=0 or compiled out).
#define SKIP_IF_VALIDATOR_OFF()                                     \
  do {                                                              \
    if (!lockrank::ChecksEnabled()) {                               \
      GTEST_SKIP() << "lock-rank validator disabled in this build"; \
    }                                                               \
  } while (0)

TEST(MutexRankTest, InOrderAcquisitionPasses) {
  Mutex outer(LockRank::kExecutorService, "outer");
  Mutex middle(LockRank::kWal, "middle");
  Mutex inner(LockRank::kHistogram, "inner");
  MutexLock a(outer);
  MutexLock b(middle);
  MutexLock c(inner);
}

TEST(MutexRankTest, UnrankedIsExemptInBothDirections) {
  // Distinct, simultaneously-live instances per direction: one pair
  // taken A->B then B->A would be a real inversion (TSan rightly flags
  // it, and scoped re-declarations reuse the stack slots); the point
  // here is only that kUnranked never trips the rank validator.
  Mutex ranked_outer(LockRank::kWal, "ranked_outer");
  Mutex unranked_inner(LockRank::kUnranked, "unranked_inner");
  Mutex unranked_outer(LockRank::kUnranked, "unranked_outer");
  Mutex ranked_inner(LockRank::kWal, "ranked_inner");
  {
    MutexLock a(ranked_outer);
    MutexLock b(unranked_inner);  // Under a ranked lock: fine.
  }
  {
    MutexLock a(unranked_outer);
    MutexLock b(ranked_inner);  // Over a ranked lock: also fine.
  }
}

TEST(MutexRankTest, ReleaseRemovesFromHeldSet) {
  Mutex high(LockRank::kWal, "high");
  Mutex low(LockRank::kExecutorService, "low");
  { MutexLock a(high); }
  // `high` is released, so the lower rank acquires cleanly.
  MutexLock b(low);
}

TEST(MutexRankTest, EarlyUnlockThenRelockStaysConsistent) {
  Mutex mu(LockRank::kWal, "wal_like");
  MutexLock lock(mu);
  lock.Unlock();
  Mutex low(LockRank::kExecutorService, "low");
  { MutexLock b(low); }  // Legal: nothing held during the gap.
  lock.Lock();
  mu.AssertHeld();
}

TEST(MutexRankDeathTest, OutOfOrderAcquisitionAborts) {
  SKIP_IF_VALIDATOR_OFF();
  Mutex inner(LockRank::kHistogram, "histogram");
  Mutex outer(LockRank::kExecutorService, "executor");
  EXPECT_DEATH(
      {
        MutexLock a(inner);
        MutexLock b(outer);
      },
      "LOCK RANK VIOLATION");
}

TEST(MutexRankDeathTest, SameRankTwiceAborts) {
  SKIP_IF_VALIDATOR_OFF();
  Mutex first(LockRank::kHeapTable, "heap_a");
  Mutex second(LockRank::kHeapTable, "heap_b");
  EXPECT_DEATH(
      {
        MutexLock a(first);
        MutexLock b(second);
      },
      "LOCK RANK VIOLATION");
}

TEST(MutexRankDeathTest, SuccessfulTryLockJoinsHeldSet) {
  SKIP_IF_VALIDATOR_OFF();
  Mutex inner(LockRank::kCatalog, "catalog");
  Mutex outer(LockRank::kWal, "wal");
  EXPECT_DEATH(
      {
        if (inner.TryLock()) {
          MutexLock a(outer);  // kWal < kCatalog while kCatalog held.
        }
      },
      "LOCK RANK VIOLATION");
}

TEST(MutexRankDeathTest, ViolationReportListsHeldLocks) {
  SKIP_IF_VALIDATOR_OFF();
  Mutex held(LockRank::kStorageTables, "storage_tables");
  Mutex attempt(LockRank::kExecutorService, "executor_service");
  // The abort report names both the attempted lock and the held one.
  EXPECT_DEATH(
      {
        MutexLock a(held);
        MutexLock b(attempt);
      },
      "executor_service(.|\n)*storage_tables");
}

TEST(MutexRankDeathTest, AssertHeldAbortsWhenNotHeld) {
  SKIP_IF_VALIDATOR_OFF();
  Mutex mu(LockRank::kLeaf, "unheld");
  EXPECT_DEATH(mu.AssertHeld(), "LOCK ASSERTION FAILED");
}

TEST(MutexRankTest, AssertHeldPassesWhenHeld) {
  Mutex mu(LockRank::kLeaf, "held");
  MutexLock lock(mu);
  mu.AssertHeld();
}

TEST(MutexRankTest, SharedMutexRankChecksApply) {
  SharedMutex tables(LockRank::kStorageTables, "tables");
  // Heap-allocated: std::mutex's destructor is trivial, so TSan forgets
  // a mutex's lock-order edges only when its memory is freed. On the
  // stack, `latch` can land where an earlier test's outer mutex was and
  // read as an inversion.
  auto latch = std::make_unique<Mutex>(LockRank::kHeapTable, "latch");
  ReaderMutexLock read(tables);
  MutexLock inner(*latch);
  tables.AssertHeld();
}

TEST(MutexRankDeathTest, SharedAcquisitionStillRankChecked) {
  SKIP_IF_VALIDATOR_OFF();
  Mutex inner(LockRank::kHeapTable, "heap");
  SharedMutex outer(LockRank::kStorageTables, "tables");
  EXPECT_DEATH(
      {
        MutexLock a(inner);
        ReaderMutexLock b(outer);
      },
      "LOCK RANK VIOLATION");
}

TEST(MutexRankTest, CondVarWaitKeepsMutexInHeldSet) {
  Mutex mu(LockRank::kLeaf, "cv_mutex");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return ready; });
    // Post-wait the thread owns the mutex again and the validator's
    // held set agrees.
    mu.AssertHeld();
  }
  waker.join();
}

// The deepest real acquisition chain: a flight+hotel pair closes in one
// round — the coordinator mutex, then the install path (WAL -> 2PL ->
// storage) across two answer relations, then handle completion. If the
// rank table mis-ordered any edge, this aborts.
TEST(MutexRankTest, CoordinatorFlightHotelRoundRunsClean) {
  StorageEngine storage;
  ASSERT_TRUE(storage
                  .CreateTable("Flights",
                               Schema({{"fno", DataType::kInt64, false},
                                       {"dest", DataType::kString, false}}))
                  .ok());
  ASSERT_TRUE(storage
                  .Insert("Flights", Tuple({Value::Int64(100),
                                            Value::String("Paris")}))
                  .ok());
  ASSERT_TRUE(storage
                  .CreateTable("Hotels",
                               Schema({{"hid", DataType::kInt64, false},
                                       {"city", DataType::kString, false}}))
                  .ok());
  ASSERT_TRUE(storage
                  .Insert("Hotels", Tuple({Value::Int64(7),
                                           Value::String("Paris")}))
                  .ok());
  TxnManager txns(&storage);
  Coordinator coordinator(&storage, &txns);

  auto submit = [&](const std::string& self, const std::string& other) {
    const std::string sql =
        "SELECT '" + self + "', fno INTO ANSWER Reservation, '" + self +
        "', hid INTO ANSWER HotelReservation WHERE fno IN (SELECT fno FROM "
        "Flights WHERE dest='Paris') AND hid IN (SELECT hid FROM Hotels "
        "WHERE city='Paris') AND ('" + other +
        "', fno) IN ANSWER Reservation AND ('" + other +
        "', hid) IN ANSWER HotelReservation CHOOSE 1";
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    auto query = Normalizer::Normalize(
        static_cast<const SelectStatement&>(*stmt.value()), 0, self, sql);
    EXPECT_TRUE(query.ok()) << query.status();
    return coordinator.Submit(query.TakeValue());
  };

  auto first = submit("alice", "bob");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first.value().Done());
  auto second = submit("bob", "alice");
  ASSERT_TRUE(second.ok()) << second.status();
  // Reaching here without an abort is the real assertion; matching is a
  // bonus sanity check.
  EXPECT_TRUE(first.value().Done());
  EXPECT_TRUE(second.value().Done());
}

}  // namespace
}  // namespace youtopia
