#include "server/client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "travel/travel_schema.h"

namespace youtopia {
namespace {

using std::chrono::milliseconds;

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(travel::SetupFigure1(&db_).ok()); }

  static ClientOptions Owner(const std::string& owner) {
    return ClientOptions(owner);
  }

  static std::string PairSql(const std::string& self,
                             const std::string& other) {
    return "SELECT '" + self + "', fno INTO ANSWER Reservation WHERE fno IN "
           "(SELECT fno FROM Flights WHERE dest='Paris') AND ('" + other +
           "', fno) IN ANSWER Reservation CHOOSE 1";
  }

  static std::string GroupSql(const std::vector<std::string>& group,
                              size_t self_index) {
    std::string sql = "SELECT '" + group[self_index] +
                      "', fno INTO ANSWER Reservation WHERE fno IN "
                      "(SELECT fno FROM Flights WHERE dest='Paris')";
    for (size_t j = 0; j < group.size(); ++j) {
      if (j == self_index) continue;
      sql += " AND ('" + group[j] + "', fno) IN ANSWER Reservation";
    }
    return sql + " CHOOSE 1";
  }

  Youtopia db_;
};

TEST_F(ClientTest, ExecuteAndHistory) {
  Client client(&db_, Owner("Kramer"));
  ASSERT_TRUE(client.Execute("SELECT * FROM Flights").ok());
  ASSERT_TRUE(client.Execute("SELECT * FROM Airlines").ok());
  auto history = client.History();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0], "SELECT * FROM Flights");
}

TEST_F(ClientTest, HistoryRecordingCanBeDisabled) {
  ClientOptions options;
  options.record_history = false;
  Client client(&db_, options);
  ASSERT_TRUE(client.Execute("SELECT * FROM Flights").ok());
  EXPECT_TRUE(client.History().empty());
}

TEST_F(ClientTest, ExecuteRejectsEntangledStatements) {
  Client client(&db_, Owner("Kramer"));
  EXPECT_EQ(client.Execute(PairSql("Kramer", "Jerry")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClientTest, SubmitTagsDefaultOwnerInPending) {
  Client client(&db_, Owner("Kramer"));
  ASSERT_TRUE(client.Submit(PairSql("Kramer", "Jerry")).ok());
  auto pending = db_.coordinator().Pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].owner, "Kramer");
  EXPECT_EQ(client.Outstanding().size(), 1u);
}

TEST_F(ClientTest, SubmitAsOverridesOwner) {
  Client shared(&db_, Owner("middle-tier"));
  ASSERT_TRUE(shared.SubmitAs("Elaine", PairSql("Elaine", "George")).ok());
  auto pending = db_.coordinator().Pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].owner, "Elaine");
}

TEST_F(ClientTest, SubmitCallbackObservesCompletionWithoutWait) {
  Client kramer(&db_, Owner("Kramer"));
  Client jerry(&db_, Owner("Jerry"));

  size_t fired = 0;
  auto handle = kramer.Submit(
      PairSql("Kramer", "Jerry"), [&fired](const EntangledHandle& done) {
        ++fired;
        EXPECT_TRUE(done.Done());
        EXPECT_TRUE(done.Outcome().value_or(Status::Internal("none")).ok());
      });
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(fired, 0u);

  // Jerry's submission completes the pair and delivers Kramer's
  // callback; Kramer's thread never enters Wait.
  ASSERT_TRUE(jerry.Submit(PairSql("Jerry", "Kramer")).ok());
  EXPECT_EQ(fired, 1u);
}

TEST_F(ClientTest, SubmitBatchClosesGroupInOneRound) {
  Client shared(&db_, Owner("middle-tier"));
  const std::vector<std::string> group = {"Jerry", "Kramer", "Elaine"};
  std::vector<std::string> statements;
  for (size_t i = 0; i < group.size(); ++i) {
    statements.push_back(GroupSql(group, i));
  }
  const size_t match_calls_before = db_.coordinator().stats().match_calls;

  std::atomic<size_t> fired{0};
  auto handles = shared.SubmitBatchAs(
      group, statements,
      [&fired](const EntangledHandle&) { fired.fetch_add(1); });
  ASSERT_TRUE(handles.ok()) << handles.status();
  ASSERT_EQ(handles->size(), 3u);
  for (const auto& handle : *handles) EXPECT_TRUE(handle.Done());
  EXPECT_EQ(fired.load(), 3u);

  auto stats = db_.coordinator().stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 3u);
  // The whole group closed in the batch's single matching round.
  EXPECT_EQ(stats.match_calls - match_calls_before, 1u);

  // Owner tags flowed through per statement: everyone holds the same
  // flight in the stored answer relation.
  auto reservations = shared.Execute("SELECT * FROM Reservation");
  ASSERT_TRUE(reservations.ok());
  EXPECT_EQ(reservations->rows.size(), 3u);
}

TEST_F(ClientTest, SubmitBatchOwnersSizeMismatchRejected) {
  Client client(&db_, Owner("Kramer"));
  auto handles = client.SubmitBatchAs({"one"}, {"SELECT 1", "SELECT 2"});
  EXPECT_EQ(handles.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ClientTest, SubmitBatchRejectsNonSelectAtomically) {
  Client client(&db_, Owner("Kramer"));
  auto handles = client.SubmitBatch(
      {PairSql("Kramer", "Jerry"), "INSERT INTO Flights VALUES (1, 'X')"});
  EXPECT_EQ(handles.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.coordinator().pending_count(), 0u);
}

TEST_F(ClientTest, RunDetectsEntangledAndTracks) {
  Client client(&db_, Owner("Kramer"));
  auto regular = client.Run("SELECT * FROM Flights");
  ASSERT_TRUE(regular.ok());
  EXPECT_FALSE(regular->entangled);

  auto entangled = client.Run(PairSql("Kramer", "Jerry"));
  ASSERT_TRUE(entangled.ok());
  EXPECT_TRUE(entangled->entangled);
  EXPECT_EQ(client.Outstanding().size(), 1u);
}

TEST_F(ClientTest, WaitForAllAndCancelAll) {
  Client kramer(&db_, Owner("Kramer"));
  ASSERT_TRUE(kramer.Submit(PairSql("Kramer", "Ghost1")).ok());
  ASSERT_TRUE(kramer.Submit(PairSql("Kramer", "Ghost2")).ok());
  EXPECT_EQ(kramer.WaitForAll(milliseconds(20)).code(),
            StatusCode::kTimedOut);
  ASSERT_TRUE(kramer.CancelAll().ok());
  EXPECT_TRUE(kramer.Outstanding().empty());
  EXPECT_EQ(db_.coordinator().pending_count(), 0u);
}

TEST_F(ClientTest, StatementTimeoutRetriesLockConflicts) {
  // A writer transaction holds the X lock on Flights longer than one
  // lock wait (500ms), so a single-attempt Execute times out...
  auto txn = db_.txn_manager().Begin();
  ASSERT_TRUE(db_.txn_manager()
                  .lock_manager()
                  .Acquire(txn->id(), "Flights", LockMode::kExclusive)
                  .ok());

  std::atomic<bool> release{false};
  std::thread holder([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    ASSERT_TRUE(db_.txn_manager().Commit(txn.get()).ok());
  });

  // ...but a client with a statement timeout keeps retrying until the
  // writer commits — through Execute and through Run alike.
  ClientOptions options("patient");
  options.statement_timeout = milliseconds(5000);
  options.retry_interval = milliseconds(5);
  Client patient(&db_, options);

  std::thread releaser([&] {
    std::this_thread::sleep_for(milliseconds(700));
    release.store(true);
  });
  std::thread runner([&] {
    auto outcome = patient.Run("SELECT * FROM Flights");
    EXPECT_TRUE(outcome.ok()) << outcome.status();
  });
  auto result = patient.Execute("SELECT * FROM Flights");
  EXPECT_TRUE(result.ok()) << result.status();

  runner.join();
  releaser.join();
  holder.join();
}

TEST_F(ClientTest, ExecuteAsyncResolvesWithResult) {
  Client client(&db_, Owner("Kramer"));
  auto future = client.ExecuteAsync("SELECT * FROM Flights");
  auto result = future.get();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->rows.empty());
  // Entangled statements are rejected through the async path too.
  auto bad = client.ExecuteAsync(PairSql("Kramer", "Jerry")).get();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ClientTest, RunAsyncTracksEntangledHandles) {
  Client client(&db_, Owner("Kramer"));
  auto outcome = client.RunAsync(PairSql("Kramer", "Jerry")).get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->entangled);
  ASSERT_TRUE(outcome->handle.has_value());
  EXPECT_FALSE(outcome->handle->Done());
  // The handle is already tracked when .get() returns.
  EXPECT_EQ(client.Outstanding().size(), 1u);
  ASSERT_TRUE(client.CancelAll().ok());
}

TEST_F(ClientTest, ExecuteScriptAsyncPartialSemantics) {
  Client client(&db_, Owner("Kramer"));
  auto status = client
                    .ExecuteScriptAsync("CREATE TABLE sa (x INT);"
                                        "INSERT INTO sa VALUES (1);"
                                        "INSERT INTO nosuch VALUES (2);")
                    .get();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  auto rows = client.Execute("SELECT x FROM sa");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(ClientTest, AsyncSurfaceOverWorkerPool) {
  // The same façade over a pooled engine: many futures in flight from
  // one caller thread, each client a FIFO domain.
  YoutopiaConfig config;
  config.executor.num_workers = 2;
  Youtopia pooled(config);
  ASSERT_TRUE(travel::SetupFigure1(&pooled).ok());
  Client client(&pooled, Owner("Kramer"));
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(client.ExecuteAsync("SELECT * FROM Flights"));
  }
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->rows.empty());
  }
  // A future resolves in the continuation, a hair before the worker
  // books the task's completion; drain so the counter covers all 16.
  ASSERT_TRUE(pooled.executor_service()
                  .Drain(std::chrono::milliseconds(5000))
                  .ok());
  EXPECT_GE(pooled.executor_service().stats().executed, 16u);
}

TEST_F(ClientTest, OutstandingPrunesCompleted) {
  Client kramer(&db_, Owner("Kramer"));
  Client jerry(&db_, Owner("Jerry"));
  ASSERT_TRUE(kramer.Submit(PairSql("Kramer", "Jerry")).ok());
  EXPECT_EQ(kramer.Outstanding().size(), 1u);
  ASSERT_TRUE(jerry.Submit(PairSql("Jerry", "Kramer")).ok());
  EXPECT_TRUE(kramer.Outstanding().empty());
  EXPECT_TRUE(jerry.Outstanding().empty());
}

TEST_F(ClientTest, RunTracksOnlyPendingEntangled) {
  Client solo(&db_, Owner("Solo"));
  auto direct = solo.Run(
      "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1");
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->handle->Done());
  EXPECT_TRUE(solo.Outstanding().empty());

  auto waiting = solo.Run(PairSql("Solo", "Ghost"));
  ASSERT_TRUE(waiting.ok());
  EXPECT_EQ(solo.Outstanding().size(), 1u);
}

TEST_F(ClientTest, WaitForAllSucceedsWhenCoordinated) {
  Client kramer(&db_, Owner("Kramer"));
  Client jerry(&db_, Owner("Jerry"));
  ASSERT_TRUE(kramer.Submit(PairSql("Kramer", "Jerry")).ok());
  ASSERT_TRUE(jerry.Submit(PairSql("Jerry", "Kramer")).ok());
  EXPECT_TRUE(kramer.WaitForAll(milliseconds(100)).ok());
  EXPECT_TRUE(jerry.WaitForAll(milliseconds(100)).ok());
}

TEST_F(ClientTest, TwoClientsCoordinateAcrossThreads) {
  Client kramer(&db_, Owner("Kramer"));
  Client jerry(&db_, Owner("Jerry"));
  std::thread t1([&kramer] {
    auto h = kramer.Submit(ClientTest::PairSql("Kramer", "Jerry"));
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(h->Wait(milliseconds(5000)).ok());
  });
  std::thread t2([&jerry] {
    auto h = jerry.Submit(ClientTest::PairSql("Jerry", "Kramer"));
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(h->Wait(milliseconds(5000)).ok());
  });
  t1.join();
  t2.join();
  EXPECT_EQ(db_.Execute("SELECT * FROM Reservation")->rows.size(), 2u);
}

}  // namespace
}  // namespace youtopia
