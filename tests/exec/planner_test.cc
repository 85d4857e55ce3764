#include "exec/planner.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace youtopia {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage_
                    .CreateTable("Flights",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"dest", DataType::kString, false},
                                         {"price", DataType::kInt64, false}}))
                    .ok());
    ASSERT_TRUE(storage_
                    .CreateTable("Airlines",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"airline", DataType::kString, false}}))
                    .ok());
    ASSERT_TRUE(storage_.CreateIndex("Flights", "dest").ok());
    planner_ = std::make_unique<Planner>(&storage_);
  }

  std::unique_ptr<SelectStatement> ParseSelect(const std::string& sql) {
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    return std::unique_ptr<SelectStatement>(
        static_cast<SelectStatement*>(stmt.TakeValue().release()));
  }

  StorageEngine storage_;
  std::unique_ptr<Planner> planner_;
};

TEST_F(PlannerTest, SingleTableKeylessScan) {
  auto stmt = ParseSelect("SELECT fno FROM Flights");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  // Project over a keyless Scan.
  EXPECT_NE(planned->root->ToString().find("Project"), std::string::npos);
  ASSERT_EQ(planned->root->children().size(), 1u);
  EXPECT_EQ(planned->root->children()[0]->ToString(), "Scan(Flights)");
  EXPECT_EQ(planned->column_names, std::vector<std::string>{"fno"});
}

TEST_F(PlannerTest, EqualityConjunctBecomesProbeKey) {
  auto stmt = ParseSelect("SELECT fno FROM Flights WHERE dest = 'Paris'");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("Scan(Flights: dest = 'Paris')"), std::string::npos)
      << tree;
  // Sole conjunct absorbed: no Filter node.
  EXPECT_EQ(tree.find("Filter"), std::string::npos) << tree;
}

TEST_F(PlannerTest, EveryEqualityIsAbsorbedAndTheRestFiltered) {
  auto stmt = ParseSelect(
      "SELECT fno FROM Flights WHERE dest = 'Paris' AND price < 500 "
      "AND 7 = fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("Scan(Flights: dest = 'Paris' AND fno = 7)"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("Filter(price < 500)"), std::string::npos) << tree;
}

TEST_F(PlannerTest, RangePredicateStaysInTheFilter) {
  auto stmt = ParseSelect("SELECT fno FROM Flights WHERE price < 500");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("Scan(Flights)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("Filter(price < 500)"), std::string::npos) << tree;
}

// A literal is absorbed only when Value identity agrees with SQL `=`:
// non-NULL and losslessly convertible to the column's type, converted.
TEST_F(PlannerTest, OnlyLosslessNonNullLiteralsAreAbsorbed) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"fno = 3.0", "Scan(Flights: fno = 3)"},
      {"fno = 3.5", "Filter(fno = 3.5)"},
      {"fno = NULL", "Filter(fno = NULL)"},
      {"fno = 'x'", "Filter(fno = 'x')"},
      {"dest = 3", "Filter(dest = 3)"},
  };
  for (const auto& [where, expected] : cases) {
    auto stmt = ParseSelect("SELECT fno FROM Flights WHERE " + where);
    auto planned = planner_->PlanSelect(*stmt);
    ASSERT_TRUE(planned.ok()) << where;
    const std::string tree = planned->root->ToStringTree();
    EXPECT_NE(tree.find(expected), std::string::npos) << where << "\n"
                                                      << tree;
  }
}

TEST_F(PlannerTest, ProbesTheShorterPostingListInEitherConjunctOrder) {
  ASSERT_TRUE(storage_.CreateIndex("Flights", "price").ok());
  // Six flights to Paris; one of them at price 100.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(storage_
                    .Insert("Flights",
                            Tuple({Value::Int64(i), Value::String("Paris"),
                                   Value::Int64(i == 4 ? 100 : 200 + i)}))
                    .ok());
  }
  for (const std::string where : {"dest = 'Paris' AND price = 100",
                                  "price = 100 AND dest = 'Paris'"}) {
    auto stmt = ParseSelect("SELECT fno FROM Flights WHERE " + where);
    auto planned = planner_->PlanSelect(*stmt);
    ASSERT_TRUE(planned.ok()) << where;
    const uint64_t before = storage_.access_stats().postings_read;
    ExecContext ctx{&storage_, nullptr, 0};
    auto rows = planned->root->Execute(ctx);
    ASSERT_TRUE(rows.ok()) << where;
    ASSERT_EQ(rows->size(), 1u) << where;
    EXPECT_EQ(rows->at(0).at(0).int64_value(), 4);
    // price = 100 has one posting, dest = 'Paris' six.
    EXPECT_EQ(storage_.access_stats().postings_read - before, 1u) << where;
  }
}

TEST_F(PlannerTest, JoinTablesEachProbeTheirOwnKeys) {
  auto stmt = ParseSelect(
      "SELECT f.fno FROM Flights f, Airlines a "
      "WHERE f.fno = a.fno AND f.dest = 'Paris' AND a.airline = 'United'");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("Scan(Flights: dest = 'Paris')"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("Scan(Airlines: airline = 'United')"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("Filter(f.fno = a.fno)"), std::string::npos) << tree;
}

TEST_F(PlannerTest, AmbiguousColumnIsNotAbsorbed) {
  // fno names a column of both tables: the filter keeps the conjunct and
  // reports the ambiguity when it runs.
  auto stmt = ParseSelect("SELECT dest FROM Flights, Airlines WHERE fno = 3");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("Filter(fno = 3)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("Scan(Flights)\n"), std::string::npos) << tree;
  EXPECT_NE(tree.find("Scan(Airlines)\n"), std::string::npos) << tree;
}

TEST_F(PlannerTest, EquiJoinPlansHashJoin) {
  auto stmt = ParseSelect(
      "SELECT f.fno, a.airline FROM Flights f, Airlines a "
      "WHERE f.fno = a.fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("HashJoin"), std::string::npos) << tree;
  EXPECT_EQ(planned->column_names,
            (std::vector<std::string>{"fno", "airline"}));
}

TEST_F(PlannerTest, NonEquiJoinFallsBackToCrossJoin) {
  auto stmt = ParseSelect(
      "SELECT f.fno FROM Flights f, Airlines a WHERE f.fno < a.fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  EXPECT_NE(tree.find("CrossJoin"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("HashJoin"), std::string::npos) << tree;
}

TEST_F(PlannerTest, ThreeWayJoinChainsHashJoins) {
  ASSERT_TRUE(storage_
                  .CreateTable("Seats", Schema({{"fno", DataType::kInt64,
                                                 false},
                                                {"seat", DataType::kInt64,
                                                 false}}))
                  .ok());
  auto stmt = ParseSelect(
      "SELECT f.fno FROM Flights f, Airlines a, Seats s "
      "WHERE f.fno = a.fno AND s.fno = a.fno");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  const std::string tree = planned->root->ToStringTree();
  // Both joins hashed, none crossed.
  EXPECT_EQ(tree.find("CrossJoin"), std::string::npos) << tree;
  size_t first = tree.find("HashJoin");
  ASSERT_NE(first, std::string::npos) << tree;
  EXPECT_NE(tree.find("HashJoin", first + 1), std::string::npos) << tree;
}

TEST_F(PlannerTest, StarExpandsAllColumns) {
  auto stmt = ParseSelect("SELECT * FROM Flights");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->column_names,
            (std::vector<std::string>{"fno", "dest", "price"}));
}

TEST_F(PlannerTest, StarMixedWithExprsRejected) {
  auto stmt = ParseSelect("SELECT *, fno FROM Flights");
  EXPECT_FALSE(planner_->PlanSelect(*stmt).ok());
}

TEST_F(PlannerTest, ConstantSelectHasNullRoot) {
  auto stmt = ParseSelect("SELECT 1 + 1");
  auto planned = planner_->PlanSelect(*stmt);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->root, nullptr);
}

TEST_F(PlannerTest, UnknownTableFails) {
  auto stmt = ParseSelect("SELECT x FROM Nope");
  EXPECT_EQ(planner_->PlanSelect(*stmt).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PlannerTest, EntangledQueryRejected) {
  auto stmt = ParseSelect("SELECT 'u', fno INTO ANSWER R WHERE fno IN "
                          "(SELECT fno FROM Flights)");
  EXPECT_EQ(planner_->PlanSelect(*stmt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SplitConjunctsTest, SplitsNestedAnds) {
  auto stmt = Parser::ParseStatement(
      "SELECT * FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  ASSERT_TRUE(stmt.ok());
  const auto& select = static_cast<const SelectStatement&>(*stmt.value());
  auto conjuncts = SplitConjuncts(select.where.get());
  EXPECT_EQ(conjuncts.size(), 3u);
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
}

}  // namespace
}  // namespace youtopia
