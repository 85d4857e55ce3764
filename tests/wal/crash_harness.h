// Shared harness for the kill-and-recover differential tests: run a
// randomized workload (regular DML + entangled pair submissions +
// occasional checkpoints) against a durable engine, crash it at a
// randomized point inside a WAL flush via the crash hook, restart over
// the same directory, and check the durability invariants:
//
//   1. recovered rows  ⊆  issued rows       (nothing invented)
//   2. acked rows      ⊆  recovered rows    (nothing acknowledged lost)
//   3. every pair key appears 0-or-2 times in the answer relation — a
//      matched group is never half-durable
//   4. every acked, unresolved submission is back in the pending pool
//      (or was resolved by a match); every pending entry was issued
//
// The short in-tree test (wal_crash_test) runs a handful of seeds; the
// integration sweep (wal_crash_sweep_test) runs the full randomized
// sweep across 100+ crash points.

#ifndef YOUTOPIA_TESTS_WAL_CRASH_HARNESS_H_
#define YOUTOPIA_TESTS_WAL_CRASH_HARNESS_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "server/youtopia.h"
#include "travel/travel_schema.h"

namespace youtopia::wal_crash {

inline std::string IterationDir(const std::string& tag, uint64_t seed) {
  return (std::filesystem::temp_directory_path() /
          ("wal_crash_" + tag + "_" + std::to_string(seed)))
      .string();
}

/// Arms a crash that fires once `countdown` crash-point callbacks have
/// been observed, optionally restricted to one CrashPoint kind
/// (`filter` in 0..2; 3 = any point counts).
inline void ArmCrash(wal::WalManager* wal, int filter, int countdown) {
  auto remaining = std::make_shared<std::atomic<int>>(countdown);
  wal->SetCrashHook([filter, remaining](wal::WalManager::CrashPoint point) {
    if (filter != 3 && static_cast<int>(point) != filter) return false;
    return remaining->fetch_sub(1) <= 1;
  });
}

/// One randomized kill-and-recover iteration. Every EXPECT failure
/// names the seed, so a sweep failure reproduces as a single call.
inline void RunCrashIteration(const std::string& tag, uint64_t seed,
                              int max_ops) {
  Random rng(seed);
  const std::string dir = IterationDir(tag, seed);
  std::filesystem::remove_all(dir);

  YoutopiaConfig config;
  config.wal.enabled = true;
  config.wal.dir = dir;
  config.wal.fsync = false;  // crash = losing the process, not the disk
  config.wal.checkpoint_on_shutdown = false;
  // This draw once chose the log mode; it stays so each seed keeps
  // the rest of its schedule.
  (void)rng.NextBool();
  if (rng.NextBool(0.3)) {
    // Tiny segments: the crash point lands near rotation boundaries.
    config.wal.segment_bytes = 256 + rng.NextBelow(4096);
  }

  std::set<int64_t> issued, acked;
  std::set<std::string> issued_travelers, acked_travelers;
  size_t pair_slots = 0;  // two slots (K/J members) per pair index

  {
    Youtopia db(config);
    ASSERT_TRUE(db.recovery_status().ok()) << "seed " << seed;
    ASSERT_TRUE(travel::SetupFigure1(&db).ok()) << "seed " << seed;
    ASSERT_TRUE(db.Execute("CREATE TABLE Ledger (v INT NOT NULL)").ok())
        << "seed " << seed;

    ArmCrash(db.wal(), static_cast<int>(rng.NextBelow(4)),
             static_cast<int>(rng.NextInRange(1, 60)));

    for (int i = 0; i < max_ops && !db.wal()->crashed(); ++i) {
      if (rng.NextBool(0.3)) {
        const std::string index = std::to_string(pair_slots / 2);
        const bool first = pair_slots % 2 == 0;
        const std::string self = (first ? "K" : "J") + index;
        const std::string partner = (first ? "J" : "K") + index;
        ++pair_slots;
        issued_travelers.insert(self);
        auto handle = db.Submit(
            "SELECT '" + self +
                "', fno INTO ANSWER Reservation WHERE fno IN "
                "(SELECT fno FROM Flights WHERE dest='Paris') AND ('" +
                partner + "', fno) IN ANSWER Reservation CHOOSE 1",
            self);
        if (handle.ok()) acked_travelers.insert(self);
      } else {
        issued.insert(i);
        if (db.Execute("INSERT INTO Ledger VALUES (" + std::to_string(i) +
                       ")")
                .ok()) {
          acked.insert(i);
        }
      }
      if (rng.NextBool(0.05)) (void)db.Checkpoint();
    }
    // The workload outran the countdown: kill the process anyway, so
    // every iteration ends in a crash (buffered records lost).
    if (!db.wal()->crashed()) db.wal()->SimulateCrash();
  }

  Youtopia db(config);
  ASSERT_TRUE(db.recovery_status().ok())
      << "seed " << seed << ": " << db.recovery_status().ToString();

  // 1 + 2: recovered ⊆ issued and acked ⊆ recovered.
  std::set<int64_t> recovered;
  auto rows = db.Execute("SELECT v FROM Ledger");
  ASSERT_TRUE(rows.ok()) << "seed " << seed;
  for (const auto& row : rows->rows) {
    recovered.insert(row.at(0).int64_value());
  }
  for (int64_t v : recovered) {
    EXPECT_TRUE(issued.count(v)) << "seed " << seed << ": invented row " << v;
  }
  for (int64_t v : acked) {
    EXPECT_TRUE(recovered.count(v))
        << "seed " << seed << ": acknowledged row " << v << " lost";
  }

  // 3: pair atomicity in the answer relation.
  std::map<std::string, int> answer_count;
  auto travelers = db.Execute("SELECT traveler FROM Reservation");
  ASSERT_TRUE(travelers.ok()) << "seed " << seed;
  for (const auto& row : travelers->rows) {
    ++answer_count[row.at(0).string_value()];
  }
  for (size_t p = 0; p < (pair_slots + 1) / 2; ++p) {
    const int k = answer_count["K" + std::to_string(p)];
    const int j = answer_count["J" + std::to_string(p)];
    EXPECT_EQ(k, j) << "seed " << seed << ": pair " << p << " half-durable";
    EXPECT_LE(k, 1) << "seed " << seed << ": pair " << p << " duplicated";
  }

  // 4: acked submissions are pending or answered; pending ⊆ issued.
  std::set<std::string> pending_owners;
  for (const auto& info : db.coordinator().Pending()) {
    pending_owners.insert(info.owner);
  }
  for (const auto& traveler : acked_travelers) {
    EXPECT_TRUE(pending_owners.count(traveler) > 0 ||
                answer_count[traveler] > 0)
        << "seed " << seed << ": acknowledged submission " << traveler
        << " vanished";
  }
  for (const auto& owner : pending_owners) {
    EXPECT_TRUE(issued_travelers.count(owner))
        << "seed " << seed << ": phantom pending " << owner;
  }

  std::filesystem::remove_all(dir);
}

}  // namespace youtopia::wal_crash

#endif  // YOUTOPIA_TESTS_WAL_CRASH_HARNESS_H_
