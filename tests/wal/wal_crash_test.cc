// Short kill-and-recover differential test (a handful of randomized
// crash points — fast enough for every CI run) plus the
// mid-group-commit crash: concurrent sessions sharing a leader flush
// that dies halfway through its batch. The full ≥100-point sweep lives
// in tests/integration/wal_crash_sweep_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "crash_harness.h"

namespace youtopia {
namespace {

TEST(WalCrashTest, RandomizedCrashPointsShort) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    wal_crash::RunCrashIteration("short", seed, /*max_ops=*/30);
    if (::testing::Test::HasFailure()) break;  // first seed is enough
  }
}

TEST(WalCrashTest, MidGroupCommitCrashWithConcurrentSessions) {
  // Several sessions commit concurrently, so one leader flush carries
  // records from many of them; the hook kills the process after half
  // the batch hits disk. Per-session inserts are sequential, so each
  // recovered table must be an exact prefix of what that session
  // issued, covering at least everything it was acknowledged.
  constexpr int kSessions = 4;
  constexpr int kInsertsPerSession = 120;
  for (uint64_t seed = 100; seed < 103; ++seed) {
    Random rng(seed);
    const std::string dir = wal_crash::IterationDir("midgroup", seed);
    std::filesystem::remove_all(dir);

    YoutopiaConfig config;
    config.wal.enabled = true;
    config.wal.dir = dir;
    config.wal.fsync = false;
    config.wal.checkpoint_on_shutdown = false;

    std::vector<int> acked(kSessions, 0);
    {
      Youtopia db(config);
      ASSERT_TRUE(db.recovery_status().ok());
      for (int s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(db.Execute("CREATE TABLE t" + std::to_string(s) +
                               " (v INT NOT NULL)")
                        .ok());
      }
      wal_crash::ArmCrash(
          db.wal(),
          /*filter=*/static_cast<int>(wal::WalManager::CrashPoint::kMidWrite),
          /*countdown=*/static_cast<int>(rng.NextInRange(3, 40)));

      std::vector<std::thread> threads;
      for (int s = 0; s < kSessions; ++s) {
        threads.emplace_back([&db, &acked, s] {
          const std::string table = "t" + std::to_string(s);
          for (int i = 0; i < kInsertsPerSession; ++i) {
            if (!db.Execute("INSERT INTO " + table + " VALUES (" +
                            std::to_string(i) + ")")
                     .ok()) {
              break;  // the crash: everything after is refused
            }
            acked[s] = i + 1;
          }
        });
      }
      for (auto& thread : threads) thread.join();
      if (!db.wal()->crashed()) db.wal()->SimulateCrash();
    }

    Youtopia db(config);
    ASSERT_TRUE(db.recovery_status().ok())
        << "seed " << seed << ": " << db.recovery_status().ToString();
    for (int s = 0; s < kSessions; ++s) {
      auto rows = db.Execute("SELECT v FROM t" + std::to_string(s));
      ASSERT_TRUE(rows.ok()) << "seed " << seed;
      std::vector<int64_t> values;
      for (const auto& row : rows->rows) {
        values.push_back(row.at(0).int64_value());
      }
      std::sort(values.begin(), values.end());
      // Exact prefix 0..k-1: log order extends each session's commit
      // order, and replay stops at the torn frame.
      const int k = static_cast<int>(values.size());
      EXPECT_GE(k, acked[s]) << "seed " << seed << " session " << s
                             << ": acknowledged insert lost";
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(values[i], i)
            << "seed " << seed << " session " << s << ": not a prefix";
      }
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace youtopia
