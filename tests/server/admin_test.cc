#include "server/admin.h"

#include <gtest/gtest.h>

#include "travel/travel_schema.h"

namespace youtopia {
namespace {

TEST(AdminTest, SnapshotListsTablesWithRowCounts) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  auto snapshot = TakeAdminSnapshot(db);
  ASSERT_EQ(snapshot.tables.size(), 3u);  // Airlines, Flights, Reservation
  bool saw_flights = false;
  for (const auto& t : snapshot.tables) {
    if (t.name == "Flights") {
      saw_flights = true;
      EXPECT_EQ(t.rows, 4u);
      EXPECT_EQ(t.indexed_columns, std::vector<std::string>{"dest"});
    }
  }
  EXPECT_TRUE(saw_flights);
}

TEST(AdminTest, SnapshotShowsPendingQueriesAndGraph) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  ASSERT_TRUE(db.Submit(
                    "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno "
                    "IN (SELECT fno FROM Flights WHERE dest='Paris') AND "
                    "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
                    "Kramer")
                  .ok());
  auto snapshot = TakeAdminSnapshot(db);
  ASSERT_EQ(snapshot.pending.size(), 1u);
  EXPECT_EQ(snapshot.pending[0].owner, "Kramer");
  EXPECT_EQ(snapshot.stats.submitted, 1u);
  EXPECT_NE(snapshot.match_graph.find("1 pending queries"),
            std::string::npos);

  const std::string rendered = snapshot.ToString();
  EXPECT_NE(rendered.find("Youtopia system state"), std::string::npos);
  EXPECT_NE(rendered.find("Pending entangled queries"), std::string::npos);
  EXPECT_NE(rendered.find("Kramer"), std::string::npos);
  EXPECT_NE(rendered.find("head:"), std::string::npos);
}

TEST(AdminTest, SnapshotReportsMatchingRounds) {
  Youtopia db;
  ASSERT_TRUE(travel::SetupFigure1(&db).ok());
  ASSERT_TRUE(db.Submit(
                    "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno "
                    "IN (SELECT fno FROM Flights WHERE dest='Paris') AND "
                    "('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
                    "Kramer")
                  .ok());
  auto snapshot = TakeAdminSnapshot(db);
  // One Submit, one matching round; global_rounds stays 0.
  EXPECT_EQ(snapshot.stats.shard_rounds, 1u);
  EXPECT_EQ(snapshot.stats.global_rounds, 0u);
  EXPECT_EQ(snapshot.pending.size(), 1u);

  const std::string rendered = snapshot.ToString();
  EXPECT_NE(rendered.find("rounds=1 match_calls=1"), std::string::npos);
  EXPECT_EQ(rendered.find("shard"), std::string::npos);
}

TEST(AdminTest, EmptySystemSnapshot) {
  Youtopia db;
  auto snapshot = TakeAdminSnapshot(db);
  EXPECT_TRUE(snapshot.tables.empty());
  EXPECT_TRUE(snapshot.pending.empty());
  EXPECT_NE(snapshot.ToString().find("(none)"), std::string::npos);
}

}  // namespace
}  // namespace youtopia
