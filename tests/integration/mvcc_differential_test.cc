// Statement outcomes of the MVCC stack against an independent reference
// model (design decision #10): a randomized mixed workload is driven
// through a Youtopia instance and through a plain vector of rows that
// evaluates the same statement shapes directly. Every statement must
// agree on status, affected rows, column names and result set, and the
// final table contents must match. A concurrent leg then pins the
// invariant MVCC adds on top: lock-free readers observe every multi-row
// statement atomically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "server/youtopia.h"

namespace youtopia {
namespace {

std::vector<std::string> SortedRows(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// The reference model: `items (id, qty, tag)` and `audit (id, note)`
/// as vectors of rows, with each statement shape the workload issues
/// evaluated by hand. It knows nothing of versions, locks or indexes.
class ReferenceModel {
 public:
  struct Item {
    int64_t id;
    int64_t qty;
    std::string tag;
  };

  QueryResult InsertItem(int64_t id, int64_t qty, const std::string& tag) {
    items_.push_back({id, qty, tag});
    return Affected(1);
  }

  QueryResult SetQty(int64_t id, int64_t qty) {
    return Affected(ForEach([&](const Item& it) { return it.id == id; },
                            [&](Item& it) { it.qty = qty; }));
  }

  QueryResult BumpTag(const std::string& tag) {
    return Affected(ForEach([&](const Item& it) { return it.tag == tag; },
                            [](Item& it) { ++it.qty; }));
  }

  QueryResult DeleteId(int64_t id) {
    const size_t before = items_.size();
    items_.erase(std::remove_if(items_.begin(), items_.end(),
                                [&](const Item& it) { return it.id == id; }),
                 items_.end());
    return Affected(before - items_.size());
  }

  QueryResult SelectId(int64_t id) const {
    QueryResult r;
    r.column_names = {"id", "qty"};
    for (const Item& it : items_) {
      if (it.id == id) {
        r.rows.push_back(Tuple({Value::Int64(it.id), Value::Int64(it.qty)}));
      }
    }
    return r;
  }

  QueryResult SelectQtyAbove(int64_t qty) const {
    QueryResult r;
    r.column_names = {"tag", "qty"};
    for (const Item& it : items_) {
      if (it.qty > qty) {
        r.rows.push_back(Tuple({Value::String(it.tag), Value::Int64(it.qty)}));
      }
    }
    return r;
  }

  QueryResult SelectItems() const {
    QueryResult r;
    r.column_names = {"id", "qty", "tag"};
    for (const Item& it : items_) {
      r.rows.push_back(Tuple(
          {Value::Int64(it.id), Value::Int64(it.qty), Value::String(it.tag)}));
    }
    return r;
  }

  QueryResult InsertAudit(int64_t id, const std::string& note) {
    audit_.push_back(Tuple({Value::Int64(id), Value::String(note)}));
    return Affected(1);
  }

  QueryResult SelectAudit() const {
    QueryResult r;
    r.column_names = {"id", "note"};
    r.rows = audit_;
    return r;
  }

  /// DDL changes no rows.
  QueryResult Ddl() const { return QueryResult(); }

 private:
  static QueryResult Affected(size_t n) {
    QueryResult r;
    r.affected_rows = n;
    return r;
  }

  size_t ForEach(const std::function<bool(const Item&)>& match,
                 const std::function<void(Item&)>& apply) {
    size_t n = 0;
    for (Item& it : items_) {
      if (!match(it)) continue;
      apply(it);
      ++n;
    }
    return n;
  }

  std::vector<Item> items_;
  std::vector<Tuple> audit_;
};

TEST(MvccDifferentialTest, StatementOutcomesMatchReferenceModel) {
  Youtopia db;
  ReferenceModel model;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE items (id INT, qty INT, tag TEXT);"
                               "CREATE TABLE audit (id INT, note TEXT);")
                  .ok());

  auto check = [&](const std::string& sql, const QueryResult& want) {
    auto got = db.Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status();
    EXPECT_EQ(got->affected_rows, want.affected_rows) << sql;
    EXPECT_EQ(got->column_names, want.column_names) << sql;
    EXPECT_EQ(SortedRows(got->rows), SortedRows(want.rows)) << sql;
  };

  Random rng(0xBEEFu);
  for (int step = 0; step < 400; ++step) {
    const int64_t id = static_cast<int64_t>(rng.NextBelow(24));
    const int64_t qty = static_cast<int64_t>(rng.NextBelow(100));
    const std::string ids = std::to_string(id);
    const std::string qtys = std::to_string(qty);
    const std::string tag = "tag" + std::to_string(qty % 5);
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
        check("INSERT INTO items VALUES (" + ids + ", " + qtys + ", '" + tag +
                  "')",
              model.InsertItem(id, qty, tag));
        break;
      case 2:
        check("UPDATE items SET qty = " + qtys + " WHERE id = " + ids,
              model.SetQty(id, qty));
        break;
      case 3:
        // Multi-row update: everything with one tag moves together.
        check("UPDATE items SET qty = qty + 1 WHERE tag = '" + tag + "'",
              model.BumpTag(tag));
        break;
      case 4:
        check("DELETE FROM items WHERE id = " + ids, model.DeleteId(id));
        break;
      case 5:
        check("SELECT id, qty FROM items WHERE id = " + ids,
              model.SelectId(id));
        break;
      case 6:
        check("SELECT tag, qty FROM items WHERE qty > " + qtys,
              model.SelectQtyAbove(qty));
        break;
      default:
        check("SELECT * FROM items", model.SelectItems());
        break;
    }
    if (step == 120) {
      // Mid-workload DDL: index choices change, outcomes must not.
      check("CREATE INDEX ON items (id)", model.Ddl());
    }
    if (step % 60 == 30) {
      check("INSERT INTO audit VALUES (" + std::to_string(step) +
                ", 'checkpointed')",
            model.InsertAudit(step, "checkpointed"));
      check("SELECT * FROM audit", model.SelectAudit());
    }
  }
  // Final state agrees table for table.
  check("SELECT * FROM items", model.SelectItems());
  check("SELECT * FROM audit", model.SelectAudit());

  // The statements really were stamped through the commit clock.
  EXPECT_GT(db.storage().mvcc().clock(), kBaseTs);
}

TEST(MvccDifferentialTest, ConcurrentBrowsersSeeStatementsAtomically) {
  // The invariant the browse path adds: a multi-row UPDATE is stamped
  // with one commit timestamp, so a lock-free SELECT sees all of its
  // rows move or none — even while writers churn. The differential
  // anchor: every observed snapshot is a state the serial history could
  // have produced (all rows share one qty value).
  Youtopia db;
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
