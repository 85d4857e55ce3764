// The storage access path (StorageEngine::Probe) as SELECT, UPDATE and
// DELETE reach it through a 2PL+MVCC Youtopia: index and no-index runs
// must agree with SQL `=` semantics, DML must write each matching row
// once, snapshots and aborts must keep their versions and postings, WAL
// replay must rebuild the same rows, and a booking must not walk a table.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "server/admin.h"
#include "server/metrics.h"
#include "server/youtopia.h"
#include "sql/parser.h"

namespace youtopia {
namespace {

/// Sorted first-column integers of `result`'s rows.
std::vector<int64_t> Ints(const QueryResult& result) {
  std::vector<int64_t> out;
  for (const Tuple& row : result.rows) out.push_back(row.at(0).int64_value());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> Ints(Youtopia* db, const std::string& sql) {
  auto result = db->Execute(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  return result.ok() ? Ints(*result) : std::vector<int64_t>{};
}

// ------------------------------------------------------------- parity

/// T(k INT, v INT, d DOUBLE) holding (3, 1, 1.5), (4, 2, 3.0) and
/// (NULL, 3, NULL); `v` identifies a row.
void LoadParityTable(Youtopia* db, bool indexed) {
  ASSERT_TRUE(db->ExecuteScript(
                    "CREATE TABLE T (k INT, v INT, d DOUBLE);"
                    "INSERT INTO T VALUES (3, 1, 1.5), (4, 2, 3.0), "
                    "(NULL, 3, NULL);")
                  .ok());
  if (indexed) {
    ASSERT_TRUE(
        db->ExecuteScript("CREATE INDEX ON T (k); CREATE INDEX ON T (d);")
            .ok());
  }
}

struct ParityCase {
  std::string where;
  /// The `v` of every matching row; nullopt = the statement must fail
  /// with InvalidArgument.
  std::optional<std::vector<int64_t>> matches;
};

const std::vector<ParityCase>& ParityCases() {
  static const std::vector<ParityCase> kCases = {
      {"k = 3", std::vector<int64_t>{1}},
      {"k = 3.0", std::vector<int64_t>{1}},
      {"3.0 = k", std::vector<int64_t>{1}},
      {"k = 3.5", std::vector<int64_t>{}},
      {"k = NULL", std::vector<int64_t>{}},
      {"NULL = k", std::vector<int64_t>{}},
      {"k = 'x'", std::nullopt},
      {"d = 3", std::vector<int64_t>{2}},
      {"d = 1.5", std::vector<int64_t>{1}},
      {"d = NULL", std::vector<int64_t>{}},
      {"k = 4 AND v = 2", std::vector<int64_t>{2}},
      {"k = 4 AND v = 1", std::vector<int64_t>{}},
      {"k = 3 AND d = 1", std::vector<int64_t>{}},
      {"k = 3 OR v = 3", std::vector<int64_t>{1, 3}},
      {"k = 4 AND v IN (SELECT v FROM T WHERE d = 3.0)",
       std::vector<int64_t>{2}},
  };
  return kCases;
}

class AccessPathParityTest : public ::testing::TestWithParam<bool> {};

TEST_P(AccessPathParityTest, SelectAgreesWithSqlEquality) {
  for (const ParityCase& c : ParityCases()) {
    Youtopia db;
    LoadParityTable(&db, GetParam());
    auto result = db.Execute("SELECT v FROM T WHERE " + c.where);
    if (!c.matches.has_value()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << c.where;
      continue;
    }
    ASSERT_TRUE(result.ok()) << c.where << ": " << result.status().ToString();
    EXPECT_EQ(Ints(*result), *c.matches) << c.where;
  }
}

TEST_P(AccessPathParityTest, UpdateAgreesWithSqlEquality) {
  for (const ParityCase& c : ParityCases()) {
    Youtopia db;
    LoadParityTable(&db, GetParam());
    auto result = db.Execute("UPDATE T SET v = v + 10 WHERE " + c.where);
    if (!c.matches.has_value()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << c.where;
      EXPECT_EQ(Ints(&db, "SELECT v FROM T"), (std::vector<int64_t>{1, 2, 3}));
      continue;
    }
    ASSERT_TRUE(result.ok()) << c.where << ": " << result.status().ToString();
    EXPECT_EQ(result->affected_rows, c.matches->size()) << c.where;
    std::vector<int64_t> expected;
    for (int64_t v : {1, 2, 3}) {
      const bool hit = std::count(c.matches->begin(), c.matches->end(), v);
      expected.push_back(hit ? v + 10 : v);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Ints(&db, "SELECT v FROM T"), expected) << c.where;
  }
}

TEST_P(AccessPathParityTest, DeleteAgreesWithSqlEquality) {
  for (const ParityCase& c : ParityCases()) {
    Youtopia db;
    LoadParityTable(&db, GetParam());
    auto result = db.Execute("DELETE FROM T WHERE " + c.where);
    if (!c.matches.has_value()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << c.where;
      EXPECT_EQ(Ints(&db, "SELECT v FROM T"), (std::vector<int64_t>{1, 2, 3}));
      continue;
    }
    ASSERT_TRUE(result.ok()) << c.where << ": " << result.status().ToString();
    EXPECT_EQ(result->affected_rows, c.matches->size()) << c.where;
    std::vector<int64_t> expected;
    for (int64_t v : {1, 2, 3}) {
      if (!std::count(c.matches->begin(), c.matches->end(), v)) {
        expected.push_back(v);
      }
    }
    EXPECT_EQ(Ints(&db, "SELECT v FROM T"), expected) << c.where;
  }
}

INSTANTIATE_TEST_SUITE_P(IndexedAndNot, AccessPathParityTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Indexed" : "NoIndex";
                         });

// ------------------------------------------------------- DML via probe

class ProbeDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(
                       "CREATE TABLE T (k INT NOT NULL, v INT NOT NULL);"
                       "CREATE INDEX ON T (k);"
                       "INSERT INTO T VALUES (5, 1), (5, 2), (5, 3), (6, 4);")
                    .ok());
  }

  StorageEngine::AccessStats Access() { return db_.storage().access_stats(); }

  Youtopia db_;
};

TEST_F(ProbeDmlTest, UpdateMovingTheProbedKeyWritesEachRowOnce) {
  auto result = db_.Execute("UPDATE T SET k = k + 1 WHERE k = 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected_rows, 3u);
  EXPECT_EQ(Ints(&db_, "SELECT v FROM T WHERE k = 6"),
            (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(Ints(&db_, "SELECT v FROM T WHERE k = 5").empty());
  EXPECT_TRUE(Ints(&db_, "SELECT v FROM T WHERE k = 7").empty());
}

TEST_F(ProbeDmlTest, ResidualConjunctsAndSubqueriesAreHonoured) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE U (v INT NOT NULL);"
                                "INSERT INTO U VALUES (2), (4);")
                  .ok());
  auto deleted = db_.Execute("DELETE FROM T WHERE k = 5 AND v > 2");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->affected_rows, 1u);
  auto updated =
      db_.Execute("UPDATE T SET v = v * 10 WHERE k = 5 AND v IN "
                  "(SELECT v FROM U)");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->affected_rows, 1u);
  EXPECT_EQ(Ints(&db_, "SELECT v FROM T"), (std::vector<int64_t>{1, 4, 20}));
}

TEST_F(ProbeDmlTest, QualifiedAndReversedEqualitiesBothProbe) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE Flights (fno INT NOT NULL, "
                     "seats INT NOT NULL);"
                     "CREATE INDEX ON Flights (fno);"
                     "INSERT INTO Flights VALUES (1, 10), (2, 10), (3, 10);")
                  .ok());
  for (const std::string where : {"Flights.fno = 3", "3 = fno"}) {
    const auto before = Access();
    auto result =
        db_.Execute("UPDATE Flights SET seats = seats - 1 WHERE " + where);
    ASSERT_TRUE(result.ok()) << where << ": " << result.status().ToString();
    EXPECT_EQ(result->affected_rows, 1u) << where;
    EXPECT_EQ(Access().full_walks, before.full_walks) << where;
    EXPECT_EQ(Access().postings_read, before.postings_read + 1) << where;
    EXPECT_EQ(Access().rows_copied, before.rows_copied + 1) << where;
  }
  EXPECT_EQ(Ints(&db_, "SELECT seats FROM Flights WHERE fno = 3"),
            std::vector<int64_t>{8});
}

TEST_F(ProbeDmlTest, SnapshotBeforeAnIndexedUpdateReadsTheOldVersion) {
  SnapshotHandle snap(&db_.storage().mvcc());
  ASSERT_TRUE(db_.Execute("UPDATE T SET k = 9 WHERE k = 5").ok());

  auto old_key = db_.storage().Probe("T", {{0, Value::Int64(5)}}, snap.ts());
  ASSERT_TRUE(old_key.ok());
  EXPECT_EQ(old_key->size(), 3u);
  auto new_key = db_.storage().Probe("T", {{0, Value::Int64(9)}}, snap.ts());
  ASSERT_TRUE(new_key.ok());
  EXPECT_TRUE(new_key->empty());

  // The same through a planned SELECT at the snapshot.
  auto stmt = Parser::ParseStatement("SELECT v FROM T WHERE k = 5");
  ASSERT_TRUE(stmt.ok());
  auto rows = db_.executor().ExecuteSelect(
      static_cast<const SelectStatement&>(*stmt.value()), snap.ts());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(Ints(*rows), (std::vector<int64_t>{1, 2, 3}));
  // Current reads see the update.
  EXPECT_EQ(Ints(&db_, "SELECT v FROM T WHERE k = 9"),
            (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(ProbeDmlTest, AbortedUpdateLeavesThePostingsAsTheyWere) {
  auto stmt = Parser::ParseStatement("UPDATE T SET k = 9 WHERE k = 5");
  ASSERT_TRUE(stmt.ok());
  TxnManager& txns = db_.txn_manager();
  auto txn = txns.Begin();
  ASSERT_TRUE(
      txns.lock_manager().Acquire(txn->id(), "T", LockMode::kExclusive).ok());
  auto result = db_.executor().Execute(*stmt.value(), txn->id());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->affected_rows, 3u);
  ASSERT_TRUE(txns.Abort(txn.get()).ok());

  // The new key's postings are gone and the old key's are intact.
  auto before = Access();
  EXPECT_TRUE(db_.storage().Probe("T", {{0, Value::Int64(9)}})->empty());
  EXPECT_EQ(Access().postings_read, before.postings_read);
  before = Access();
  EXPECT_EQ(db_.storage().Probe("T", {{0, Value::Int64(5)}})->size(), 3u);
  EXPECT_EQ(Access().postings_read, before.postings_read + 3);
  EXPECT_EQ(Access().full_walks, before.full_walks);
}

// ------------------------------------------------------------- recovery

TEST(ProbeRecoveryTest, WalReplayOfIndexedDmlRebuildsRowsAndIndexes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "access_path_wal").string();
  std::filesystem::remove_all(dir);
  YoutopiaConfig config;
  config.wal.enabled = true;
  config.wal.dir = dir;
  config.wal.fsync = false;
  config.wal.checkpoint_on_shutdown = false;  // replay every statement

  const std::string kAll = "SELECT v FROM T";
  std::vector<int64_t> rows, k5, k6, k9;
  {
    Youtopia db(config);
    ASSERT_TRUE(db.recovery_status().ok());
    ASSERT_TRUE(db.ExecuteScript(
                      "CREATE TABLE T (k INT NOT NULL, v INT NOT NULL);"
                      "CREATE INDEX ON T (k);"
                      "INSERT INTO T VALUES (5, 1), (5, 2), (6, 3), (7, 4);"
                      "UPDATE T SET k = 9, v = v + 10 WHERE k = 5;"
                      "DELETE FROM T WHERE k = 6;"
                      "UPDATE T SET v = 0 WHERE 7 = k;")
                    .ok());
    rows = Ints(&db, kAll);
    k5 = Ints(&db, "SELECT v FROM T WHERE k = 5");
    k6 = Ints(&db, "SELECT v FROM T WHERE k = 6");
    k9 = Ints(&db, "SELECT v FROM T WHERE k = 9");
    ASSERT_EQ(rows, (std::vector<int64_t>{0, 11, 12}));
  }
  Youtopia db(config);
  ASSERT_TRUE(db.recovery_status().ok());
  EXPECT_EQ(Ints(&db, kAll), rows);
  EXPECT_EQ(Ints(&db, "SELECT v FROM T WHERE k = 5"), k5);
  EXPECT_EQ(Ints(&db, "SELECT v FROM T WHERE k = 6"), k6);
  EXPECT_EQ(Ints(&db, "SELECT v FROM T WHERE k = 9"), k9);
  // The recovered index holds exactly the surviving keys' postings.
  const auto before = db.storage().access_stats();
  EXPECT_EQ(db.storage().Probe("T", {{0, Value::Int64(9)}})->size(), 2u);
  EXPECT_EQ(db.storage().Probe("T", {{0, Value::Int64(7)}})->size(), 1u);
  const auto after = db.storage().access_stats();
  EXPECT_EQ(after.full_walks, before.full_walks);
  EXPECT_EQ(after.postings_read, before.postings_read + 3);
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- observability

TEST(ProbeObservabilityTest, BookingScriptWalksNoTable) {
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE Flights (fno INT NOT NULL, "
                    "dest TEXT NOT NULL, seats INT NOT NULL);"
                    "CREATE TABLE Reservation (traveler TEXT NOT NULL, "
                    "fno INT NOT NULL);"
                    "CREATE INDEX ON Flights (fno);"
                    "INSERT INTO Flights VALUES (1, 'Paris', 5), "
                    "(2, 'Rome', 5), (3, 'Paris', 5);")
                  .ok());
  const auto before = db.storage().access_stats();
  ASSERT_TRUE(db.ExecuteScript("INSERT INTO Reservation VALUES ('b1', 3); "
                               "UPDATE Flights SET seats = seats - 1 "
                               "WHERE fno = 3")
                  .ok());
  const auto after = db.storage().access_stats();
  EXPECT_EQ(after.full_walks, before.full_walks);
  EXPECT_EQ(after.rows_copied, before.rows_copied + 1);

  std::string metrics;
  AppendEngineMetrics(db, &metrics);
  EXPECT_NE(metrics.find("youtopia_storage_full_walks_total " +
                         std::to_string(after.full_walks) + "\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("youtopia_storage_rows_copied_total " +
                         std::to_string(after.rows_copied) + "\n"),
            std::string::npos)
      << metrics;
  const std::string admin = TakeAdminSnapshot(db).ToString();
  EXPECT_NE(admin.find("full_walks=" + std::to_string(after.full_walks) +
                       " rows_copied=" + std::to_string(after.rows_copied)),
            std::string::npos)
      << admin;
}

}  // namespace
}  // namespace youtopia
