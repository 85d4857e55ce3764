// The num_versions = 1 degradation guarantee (design decision #10): a
// randomized mixed workload driven side by side through an MVCC stack and a
// single-version (seed-semantics) stack must produce identical outcomes
// — statement by statement, status code and result set, and identical
// final table contents. A concurrent leg then pins the invariant MVCC
// adds on top: lock-free readers observe every multi-row statement
// atomically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "server/youtopia.h"

namespace youtopia {
namespace {

std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Tuple& t : result.rows) rows.push_back(t.ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(MvccDifferentialTest, SingleVersionConfigMatchesSeedOutcomes) {
  YoutopiaConfig seed_config;
  seed_config.mvcc.num_versions = 1;  // the seed's 2PL path, byte for byte
  YoutopiaConfig mvcc_config;
  mvcc_config.mvcc.num_versions = 4;
  Youtopia seed(seed_config);
  Youtopia mvcc(mvcc_config);

  const std::string setup =
      "CREATE TABLE items (id INT, qty INT, tag TEXT);"
      "CREATE TABLE audit (id INT, note TEXT);";
  ASSERT_TRUE(seed.ExecuteScript(setup).ok());
  ASSERT_TRUE(mvcc.ExecuteScript(setup).ok());

  Random rng(0xBEEFu);
  auto run_both = [&](const std::string& sql) {
    auto a = seed.Execute(sql);
    auto b = mvcc.Execute(sql);
    ASSERT_EQ(a.ok(), b.ok()) << sql << " -> " << a.status() << " vs "
                              << b.status();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code()) << sql;
      return;
    }
    EXPECT_EQ(a->affected_rows, b->affected_rows) << sql;
    EXPECT_EQ(a->column_names, b->column_names) << sql;
    EXPECT_EQ(SortedRows(*a), SortedRows(*b)) << sql;
  };

  for (int step = 0; step < 400; ++step) {
    const int64_t id = static_cast<int64_t>(rng.NextBelow(24));
    const int64_t qty = static_cast<int64_t>(rng.NextBelow(100));
    std::string sql;
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
        sql = "INSERT INTO items VALUES (" + std::to_string(id) + ", " +
              std::to_string(qty) + ", 'tag" + std::to_string(qty % 5) + "')";
        break;
      case 2:
        sql = "UPDATE items SET qty = " + std::to_string(qty) +
              " WHERE id = " + std::to_string(id);
        break;
      case 3:
        // Multi-row update: everything with one tag moves together.
        sql = "UPDATE items SET qty = qty + 1 WHERE tag = 'tag" +
              std::to_string(qty % 5) + "'";
        break;
      case 4:
        sql = "DELETE FROM items WHERE id = " + std::to_string(id);
        break;
      case 5:
        sql = "SELECT id, qty FROM items WHERE id = " + std::to_string(id);
        break;
      case 6:
        sql = "SELECT tag, qty FROM items WHERE qty > " +
              std::to_string(qty);
        break;
      default:
        sql = "SELECT * FROM items";
        break;
    }
    run_both(sql);
    if (step == 120) {
      // Mid-workload DDL: index choices change, outcomes must not.
      run_both("CREATE INDEX ON items (id)");
    }
    if (step % 60 == 30) {
      run_both("INSERT INTO audit VALUES (" + std::to_string(step) +
               ", 'checkpointed')");
      run_both("SELECT * FROM audit");
    }
  }
  // Final state agrees table for table.
  run_both("SELECT * FROM items");
  run_both("SELECT * FROM audit");

  // And the MVCC stack really was exercising version chains, not
  // coincidentally running unversioned.
  EXPECT_TRUE(mvcc.storage().mvcc_enabled());
  EXPECT_FALSE(seed.storage().mvcc_enabled());
  EXPECT_GT(mvcc.storage().mvcc().clock(), kBaseTs);
}

TEST(MvccDifferentialTest, ConcurrentBrowsersSeeStatementsAtomically) {
  // The invariant the browse path adds: a multi-row UPDATE is stamped
  // with one commit timestamp, so a lock-free SELECT sees all of its
  // rows move or none — even while writers churn. The differential
  // anchor: every observed snapshot is a state the serial history could
  // have produced (all rows share one qty value).
  YoutopiaConfig config;
  config.mvcc.num_versions = 6;
  Youtopia db(config);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE acct (id INT, qty INT);"
                               "INSERT INTO acct VALUES (1, 0);"
                               "INSERT INTO acct VALUES (2, 0);"
                               "INSERT INTO acct VALUES (3, 0);"
                               "INSERT INTO acct VALUES (4, 0);")
                  .ok());

  std::atomic<bool> done{false};
  std::atomic<size_t> torn{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto rows = db.Execute("SELECT qty FROM acct");
        if (!rows.ok()) continue;
        ++reads;
        if (rows->rows.size() != 4) {
          ++torn;
          continue;
        }
        const int64_t first = rows->rows[0].at(0).int64_value();
        for (const Tuple& row : rows->rows) {
          if (row.at(0).int64_value() != first) ++torn;
        }
      }
    });
  }
  // Keep the write churn alive until the readers have actually taken
  // snapshots: on a 1-core host a fixed-count loop can retire before a
  // reader thread is scheduled even once, leaving nothing observed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 0;
  while ((i < 200 || reads.load(std::memory_order_acquire) < 10) &&
         std::chrono::steady_clock::now() < deadline) {
    ++i;
    ASSERT_TRUE(
        db.Execute("UPDATE acct SET qty = " + std::to_string(i)).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace youtopia
