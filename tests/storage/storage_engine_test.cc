#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace youtopia {
namespace {

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .CreateTable("Flights",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"dest", DataType::kString, false}}))
                    .ok());
  }

  Tuple Flight(int64_t fno, const std::string& dest) {
    return Tuple({Value::Int64(fno), Value::String(dest)});
  }

  /// Rows a dest = `dest` probe returns, checking that it went through
  /// the index and read exactly `stale_postings` postings beyond them:
  /// older versions a snapshot may still read keep their keys indexed.
  size_t IndexedRows(const std::string& dest, size_t stale_postings = 0) {
    const auto before = engine_.access_stats();
    auto rows = engine_.Probe("Flights", {{1, Value::String(dest)}});
    EXPECT_TRUE(rows.ok());
    const auto after = engine_.access_stats();
    EXPECT_EQ(after.full_walks, before.full_walks);
    EXPECT_EQ(after.postings_read - before.postings_read,
              rows->size() + stale_postings);
    return rows->size();
  }

  StorageEngine engine_;
};

TEST_F(StorageEngineTest, CreateDuplicateFails) {
  EXPECT_EQ(engine_.CreateTable("flights", Schema(std::vector<Column>{})).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageEngineTest, InsertGetScan) {
  auto rid = engine_.Insert("Flights", Flight(122, "Paris"));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(engine_.Get("Flights", rid.value())->at(0).int64_value(), 122);
  ASSERT_TRUE(engine_.Insert("Flights", Flight(136, "Rome")).ok());
  EXPECT_EQ(engine_.Scan("Flights")->size(), 2u);
  EXPECT_EQ(engine_.TableSize("Flights").value(), 2u);
}

TEST_F(StorageEngineTest, OperationsOnMissingTableFail) {
  EXPECT_FALSE(engine_.Insert("Nope", Flight(1, "x")).ok());
  EXPECT_FALSE(engine_.Scan("Nope").ok());
  EXPECT_FALSE(engine_.Get("Nope", 0).ok());
  EXPECT_FALSE(engine_.Delete("Nope", 0).ok());
  EXPECT_FALSE(engine_.TableSize("Nope").ok());
}

TEST_F(StorageEngineTest, DropRemovesTableAndData) {
  ASSERT_TRUE(engine_.Insert("Flights", Flight(1, "Paris")).ok());
  ASSERT_TRUE(engine_.DropTable("Flights").ok());
  EXPECT_FALSE(engine_.Scan("Flights").ok());
  EXPECT_FALSE(engine_.catalog().HasTable("Flights"));
  // Re-creating after drop works.
  EXPECT_TRUE(engine_
                  .CreateTable("Flights",
                               Schema({{"fno", DataType::kInt64, false}}))
                  .ok());
}

TEST_F(StorageEngineTest, IndexMaintainedOnInsert) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(122, "Paris")).ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(123, "Paris")).ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(136, "Rome")).ok());
  EXPECT_EQ(IndexedRows("Paris"), 2u);
  EXPECT_TRUE(engine_.HasIndex("Flights", "dest"));
  EXPECT_FALSE(engine_.HasIndex("Flights", "fno"));
}

TEST_F(StorageEngineTest, IndexBackfillsExistingRows) {
  ASSERT_TRUE(engine_.Insert("Flights", Flight(122, "Paris")).ok());
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  EXPECT_EQ(IndexedRows("Paris"), 1u);
}

TEST_F(StorageEngineTest, IndexMaintainedOnDeleteAndUpdate) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto rid = engine_.Insert("Flights", Flight(122, "Paris"));
  ASSERT_TRUE(rid.ok());

  ASSERT_TRUE(engine_.Update("Flights", rid.value(), Flight(122, "Rome")).ok());
  // The Paris version stays in the chain (within the retention budget),
  // so its posting does too; the probe reads and drops it.
  EXPECT_EQ(IndexedRows("Paris", 1), 0u);
  EXPECT_EQ(IndexedRows("Rome"), 1u);

  ASSERT_TRUE(engine_.Delete("Flights", rid.value()).ok());
  EXPECT_EQ(IndexedRows("Rome", 1), 0u);
}

TEST_F(StorageEngineTest, DuplicateIndexFails) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  EXPECT_EQ(engine_.CreateIndex("Flights", "dest").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageEngineTest, IndexOnMissingColumnOrTableFails) {
  EXPECT_FALSE(engine_.CreateIndex("Flights", "nope").ok());
  EXPECT_FALSE(engine_.CreateIndex("Nope", "dest").ok());
  EXPECT_FALSE(engine_.HasIndex("Flights", "dest"));
}

TEST_F(StorageEngineTest, ProbeWithoutIndexWalksOnceAndCopiesMatchesOnly) {
  ASSERT_TRUE(engine_.Insert("Flights", Flight(122, "Paris")).ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(136, "Rome")).ok());
  ASSERT_TRUE(engine_.Insert("Flights", Flight(123, "Paris")).ok());
  const auto before = engine_.access_stats();
  auto rows = engine_.Probe("Flights", {{1, Value::String("Paris")}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // RowId order, whichever path found them.
  EXPECT_EQ(rows->at(0).second.at(0).int64_value(), 122);
  EXPECT_EQ(rows->at(1).second.at(0).int64_value(), 123);
  const auto after = engine_.access_stats();
  EXPECT_EQ(after.full_walks, before.full_walks + 1);
  EXPECT_EQ(after.rows_copied, before.rows_copied + 2);
  EXPECT_EQ(after.postings_read, before.postings_read);
  EXPECT_EQ(engine_.Probe("Nope", {}).status().code(), StatusCode::kNotFound);
}

TEST_F(StorageEngineTest, ProbeTakesTheShortestPostingListAndChecksAllKeys) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "fno").ok());
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  for (int64_t fno : {1, 2, 3, 4}) {
    ASSERT_TRUE(engine_.Insert("Flights", Flight(fno, "Paris")).ok());
  }
  ASSERT_TRUE(engine_.Insert("Flights", Flight(2, "Rome")).ok());
  for (const auto& keys :
       {std::vector<ProbeKey>{{1, Value::String("Paris")}, {0, Value::Int64(2)}},
        std::vector<ProbeKey>{{0, Value::Int64(2)}, {1, Value::String("Paris")}}}) {
    const auto before = engine_.access_stats();
    auto rows = engine_.Probe("Flights", keys);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(rows->at(0).second, Flight(2, "Paris"));
    // fno = 2 has two postings, dest = 'Paris' four.
    EXPECT_EQ(engine_.access_stats().postings_read, before.postings_read + 2);
  }
}

TEST_F(StorageEngineTest, CatalogRecordsIndexedColumns) {
  ASSERT_TRUE(engine_.CreateIndex("Flights", "dest").ok());
  auto info = engine_.catalog().GetTable("Flights");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->indexed_columns, std::vector<size_t>{1});
}

}  // namespace
}  // namespace youtopia
