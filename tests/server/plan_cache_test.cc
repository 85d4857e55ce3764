#include "server/plan_cache.h"

#include <gtest/gtest.h>

#include "server/admin.h"
#include "server/youtopia.h"

namespace youtopia {
namespace {

TEST(PlanCacheKeyTest, CollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(PlanCache::NormalizeKey("SELECT  x\n FROM\tt"),
            "SELECT x FROM t");
  EXPECT_EQ(PlanCache::NormalizeKey("  SELECT x FROM t  "),
            "SELECT x FROM t");
  // Literal contents are significant, including whitespace and the ''
  // escape.
  EXPECT_EQ(PlanCache::NormalizeKey("SELECT 'a  b' FROM t"),
            "SELECT 'a  b' FROM t");
  EXPECT_EQ(PlanCache::NormalizeKey("SELECT 'it''s  x'   FROM t"),
            "SELECT 'it''s  x' FROM t");
  // One trailing ';' is syntax-neutral for a single statement.
  EXPECT_EQ(PlanCache::NormalizeKey("SELECT x FROM t;"),
            "SELECT x FROM t");
  EXPECT_EQ(PlanCache::NormalizeKey("SELECT x FROM t ; "),
            "SELECT x FROM t");
  // Keyword case is NOT folded (the key must stay cheaper than a lex).
  EXPECT_NE(PlanCache::NormalizeKey("select x from t"),
            PlanCache::NormalizeKey("SELECT x FROM t"));
}

TEST(PlanCacheTest, HitReturnsTheSameSharedPlan) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto first = db.Prepare("SELECT x FROM t WHERE x > 1");
  ASSERT_TRUE(first.ok());
  auto second = db.Prepare("SELECT x FROM t WHERE x > 1");
  ASSERT_TRUE(second.ok());
  // Same immutable object, not an equivalent copy.
  EXPECT_EQ(first->get(), second->get());
  const PlanCache::Stats stats = db.plan_cache().stats();
  EXPECT_GE(stats.hits, 1u);
}

TEST(PlanCacheTest, WhitespaceVariantsShareOneEntry) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto a = db.Prepare("SELECT x FROM t");
  auto b = db.Prepare("  SELECT   x\nFROM t ;");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  YoutopiaConfig config;
  config.plan_cache.capacity = 0;
  Youtopia db(config);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto first = db.Prepare("SELECT x FROM t");
  auto second = db.Prepare("SELECT x FROM t");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  const PlanCache::Stats stats = db.plan_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.size, 0u);
  // Execution still works without the cache.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  auto rows = db.Execute("SELECT x FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  YoutopiaConfig config;
  config.plan_cache.capacity = 2;
  Youtopia db(config);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  db.plan_cache().Clear();

  auto a = db.Prepare("SELECT x FROM t WHERE x = 1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(db.Prepare("SELECT x FROM t WHERE x = 2").ok());
  // Touch the first entry so the second is now the LRU victim.
  ASSERT_TRUE(db.Prepare("SELECT x FROM t WHERE x = 1").ok());
  ASSERT_TRUE(db.Prepare("SELECT x FROM t WHERE x = 3").ok());

  const PlanCache::Stats stats = db.plan_cache().stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_GE(stats.evictions, 1u);
  // The hot entry survived the eviction.
  auto again = db.Prepare("SELECT x FROM t WHERE x = 1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(a->get(), again->get());
}

TEST(PlanCacheTest, CatalogVersionBumpsOnEveryDdl) {
  Youtopia db;
  const uint64_t v0 = db.storage().catalog().version();
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  const uint64_t v1 = db.storage().catalog().version();
  EXPECT_GT(v1, v0);
  ASSERT_TRUE(db.Execute("CREATE INDEX ON t (x)").ok());
  const uint64_t v2 = db.storage().catalog().version();
  EXPECT_GT(v2, v1);
  ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
  EXPECT_GT(db.storage().catalog().version(), v2);
}

TEST(PlanCacheTest, DdlOnOneTableLeavesOtherTablesPlansWarm) {
  // Relation-granular invalidation: the freshness gate compares
  // per-table version stamps, so DDL on table A must not discard table
  // B's cached plan — B's next Prepare is a hit on the very same
  // shared object.
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE a (x INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE b (y INT)").ok());
  auto warm = db.Prepare("SELECT y FROM b");
  ASSERT_TRUE(warm.ok());
  const size_t invalidations_before = db.plan_cache().stats().invalidations;

  ASSERT_TRUE(db.Execute("CREATE INDEX ON a (x)").ok());
  ASSERT_TRUE(db.Execute("DROP TABLE a").ok());

  auto still_warm = db.Prepare("SELECT y FROM b");
  ASSERT_TRUE(still_warm.ok());
  EXPECT_EQ(warm->get(), still_warm->get());
  EXPECT_EQ(db.plan_cache().stats().invalidations, invalidations_before);

  // And a plan over the churned table itself does go stale.
  ASSERT_TRUE(db.Execute("CREATE TABLE a (x INT, z TEXT)").ok());
  auto a_plan = db.Prepare("SELECT x FROM a");
  ASSERT_TRUE(a_plan.ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX ON a (x)").ok());
  auto a_replanned = db.Prepare("SELECT x FROM a");
  ASSERT_TRUE(a_replanned.ok());
  EXPECT_NE(a_plan->get(), a_replanned->get());
  EXPECT_GT(db.plan_cache().stats().invalidations, invalidations_before);
}

TEST(PlanCacheTest, CreateIndexInvalidatesAndTheProbeTakesTheIndex) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT, y TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (7, 'a'), (8, 'b')").ok());
  const std::string sql = "SELECT y FROM t WHERE x = 7";
  auto before = db.Prepare(sql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*before)->plan.has_value());
  EXPECT_NE((*before)->plan->root->ToStringTree().find("Scan(t: x = 7)"),
            std::string::npos);
  auto access = db.storage().access_stats();
  ASSERT_EQ(db.Execute(sql)->rows.size(), 1u);
  EXPECT_EQ(db.storage().access_stats().full_walks, access.full_walks + 1);

  ASSERT_TRUE(db.Execute("CREATE INDEX ON t (x)").ok());
  auto after = db.Prepare(sql);
  ASSERT_TRUE(after.ok());
  // The stale entry was discarded. The plan names the same probe key;
  // the storage probe now answers it through the new index.
  EXPECT_NE(before->get(), after->get());
  EXPECT_GE(db.plan_cache().stats().invalidations, 1u);
  access = db.storage().access_stats();
  ASSERT_EQ(db.Execute(sql)->rows.size(), 1u);
  EXPECT_EQ(db.storage().access_stats().full_walks, access.full_walks);
  EXPECT_EQ(db.storage().access_stats().postings_read,
            access.postings_read + 1);
}

TEST(PlanCacheTest, DropAndRecreateNeverServesTheOldSchema) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  auto one_col = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(one_col.ok());
  ASSERT_EQ(one_col->column_names.size(), 1u);

  ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (2, 'two')").ok());
  auto two_cols = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(two_cols.ok());
  EXPECT_EQ(two_cols->column_names.size(), 2u);
  ASSERT_EQ(two_cols->rows.size(), 1u);
  EXPECT_EQ(two_cols->rows[0].at(1).string_value(), "two");
}

TEST(PlanCacheTest, StalePreparedStatementFallsBackToReplanUnderLocks) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto stale = db.Prepare("SELECT * FROM t");
  ASSERT_TRUE(stale.ok());
  PreparedStatementPtr held = *stale;  // a requeued task, say

  ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (3, 'three')").ok());

  // The held plan predates the DDL; ExecutePrepared must not run it —
  // the catalog-version gate re-plans under the statement's locks.
  auto result = db.ExecutePrepared(*held);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->column_names.size(), 2u);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(1).string_value(), "three");
}

TEST(PlanCacheTest, InstallHookRegistrationInvalidates) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  auto before = db.Prepare("SELECT x FROM t");
  ASSERT_TRUE(before.ok());
  const uint64_t v = db.storage().catalog().version();

  db.coordinator().SetInstallHook(
      [](Transaction*, TxnManager*, const MatchResult&) {
        return Status::OK();
      });
  EXPECT_GT(db.storage().catalog().version(), v);

  auto after = db.Prepare("SELECT x FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  EXPECT_GE(db.plan_cache().stats().invalidations, 1u);
}

TEST(PlanCacheTest, ScriptMayPlanAgainstTablesItCreates) {
  // Regression: planning is part of Prepare now, so preparing a whole
  // script up front would fail its later statements against a catalog
  // that does not yet contain the tables its earlier statements create.
  // Prepare is per-step and lazy instead.
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE fresh (x INT);"
                               "INSERT INTO fresh VALUES (41);"
                               "UPDATE fresh SET x = x + 1;"
                               "SELECT x FROM fresh;")
                  .ok());
  auto rows = db.Execute("SELECT x FROM fresh");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0].at(0).int64_value(), 42);
}

TEST(PlanCacheTest, ScriptStepsPopulateTheSharedCache) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  const std::string script = "INSERT INTO t VALUES (1); SELECT x FROM t;";
  ASSERT_TRUE(db.ExecuteScript(script).ok());
  const PlanCache::Stats after_first = db.plan_cache().stats();
  // Replaying the script hits the per-statement entries the first run
  // inserted — one per statement, keyed on each statement's own text.
  ASSERT_TRUE(db.ExecuteScript(script).ok());
  const PlanCache::Stats after_second = db.plan_cache().stats();
  EXPECT_GE(after_second.hits, after_first.hits + 2);
}

TEST(PlanCacheTest, AdminSnapshotRendersCacheCounters) {
  Youtopia db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INT)").ok());
  ASSERT_TRUE(db.Execute("SELECT x FROM t").ok());
  ASSERT_TRUE(db.Execute("SELECT x FROM t").ok());
  const AdminSnapshot snapshot = TakeAdminSnapshot(db);
  EXPECT_GE(snapshot.plan_cache.hits, 1u);
  EXPECT_NE(snapshot.ToString().find("Plan cache"), std::string::npos);
}

}  // namespace
}  // namespace youtopia
