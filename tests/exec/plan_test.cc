// Direct tests of the physical plan operators, including the ones the
// planner only uses situationally (HashJoin) — executed standalone
// against a populated storage engine.

#include "exec/plan.h"

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "sql/parser.h"

namespace youtopia {
namespace {

class PlanNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage_
                    .CreateTable("L", Schema({{"id", DataType::kInt64, false},
                                              {"tag", DataType::kString,
                                               false}}))
                    .ok());
    ASSERT_TRUE(storage_
                    .CreateTable("R", Schema({{"id", DataType::kInt64, false},
                                              {"val", DataType::kInt64,
                                               false}}))
                    .ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(storage_
                      .Insert("L", Tuple({Value::Int64(i),
                                          Value::String("L" +
                                                        std::to_string(i))}))
                      .ok());
    }
    // R has ids 2..5, so the id-join overlap is {2, 3}.
    for (int i = 2; i < 6; ++i) {
      ASSERT_TRUE(storage_
                      .Insert("R", Tuple({Value::Int64(i),
                                          Value::Int64(i * 10)}))
                      .ok());
    }
    ctx_.storage = &storage_;
  }

  /// An access-path leaf over `table` (an unknown table gets an empty
  /// schema and fails at execution).
  std::unique_ptr<ScanNode> Scan(const std::string& table,
                                 std::vector<ProbeKey> keys = {}) {
    auto info = storage_.catalog().GetTable(table);
    return std::make_unique<ScanNode>(table, std::move(keys),
                                      info.ok() ? info->schema : Schema());
  }

  StorageEngine storage_;
  ExecContext ctx_;
};

TEST_F(PlanNodeTest, KeylessScanReturnsAllRows) {
  auto scan = Scan("L");
  auto rows = scan->Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
  EXPECT_EQ(scan->ToString(), "Scan(L)");
}

TEST_F(PlanNodeTest, ScanMissingTableErrors) {
  EXPECT_FALSE(Scan("Nope")->Execute(ctx_).ok());
}

TEST_F(PlanNodeTest, KeyedScanFetchesMatchesWithOrWithoutIndex) {
  for (bool indexed : {false, true}) {
    if (indexed) {
      ASSERT_TRUE(storage_.CreateIndex("R", "id").ok());
    }
    auto scan = Scan("R", {{0, Value::Int64(3)}});
    auto rows = scan->Execute(ctx_);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(rows->at(0).at(1).int64_value(), 30);
    EXPECT_EQ(scan->ToString(), "Scan(R: id = 3)");
  }
}

TEST_F(PlanNodeTest, CrossJoinProducesProduct) {
  auto join = std::make_unique<CrossJoinNode>(
      Scan("L"), Scan("R"));
  auto rows = join->Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 16u);
  EXPECT_EQ(rows->at(0).size(), 4u);  // concatenated tuples
}

TEST_F(PlanNodeTest, HashJoinMatchesEqualKeys) {
  auto join = std::make_unique<HashJoinNode>(
      Scan("L"), Scan("R"),
      /*left_key=*/0, /*right_key=*/0);
  auto rows = join->Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  for (const Tuple& row : *rows) {
    EXPECT_EQ(row.at(0), row.at(2));  // join keys agree
  }
}

TEST_F(PlanNodeTest, HashJoinHandlesDuplicates) {
  ASSERT_TRUE(storage_
                  .Insert("R", Tuple({Value::Int64(3), Value::Int64(999)}))
                  .ok());
  auto join = std::make_unique<HashJoinNode>(
      Scan("L"), Scan("R"),
      0, 0);
  auto rows = join->Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // id 2 once, id 3 twice
}

TEST_F(PlanNodeTest, HashJoinEmptySides) {
  ASSERT_TRUE(storage_.CreateTable("Empty",
                                   Schema({{"id", DataType::kInt64, false}}))
                  .ok());
  auto join = std::make_unique<HashJoinNode>(
      Scan("Empty"),
      Scan("R"), 0, 0);
  auto rows = join->Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(PlanNodeTest, FilterAppliesPredicate) {
  auto stmt = Parser::ParseStatement("SELECT id FROM L WHERE id >= 2");
  ASSERT_TRUE(stmt.ok());
  const auto& select = static_cast<const SelectStatement&>(*stmt.value());
  BoundColumns columns;
  columns.AddSource("L", storage_.catalog().GetTable("L")->schema, 0);
  FilterNode filter(Scan("L"), {select.where.get()}, &columns);
  auto rows = filter.Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_NE(filter.ToString().find("id >= 2"), std::string::npos);
}

TEST_F(PlanNodeTest, ProjectEvaluatesExpressions) {
  auto stmt = Parser::ParseStatement("SELECT id * 100 FROM L");
  ASSERT_TRUE(stmt.ok());
  const auto& select = static_cast<const SelectStatement&>(*stmt.value());
  BoundColumns columns;
  columns.AddSource("L", storage_.catalog().GetTable("L")->schema, 0);
  ProjectNode project(Scan("L"),
                      {select.select_list[0].get()}, &columns);
  auto rows = project.Execute(ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ(rows->at(3).at(0).int64_value(), 300);
}

TEST_F(PlanNodeTest, ToStringTreeIndentsChildren) {
  auto join = std::make_unique<CrossJoinNode>(
      Scan("L"), Scan("R"));
  const std::string tree = join->ToStringTree();
  EXPECT_NE(tree.find("CrossJoin\n  Scan(L)\n  Scan(R)"),
            std::string::npos)
      << tree;
}

}  // namespace
}  // namespace youtopia
