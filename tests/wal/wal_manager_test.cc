#include "wal/wal_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace youtopia::wal {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("wal_mgr_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

WalConfig TestConfig(const std::string& dir) {
  WalConfig config;
  config.enabled = true;
  config.dir = dir;
  // In-process tests reopen without losing the page cache, so skipping
  // the fsync syscall changes nothing they can observe.
  config.fsync = false;
  return config;
}

/// Full startup protocol, collecting whatever replays.
std::unique_ptr<WalManager> OpenWal(const WalConfig& config,
                                    std::vector<WalRecord>* replayed) {
  auto wal = std::make_unique<WalManager>(config);
  EXPECT_TRUE(wal->Open().ok());
  Status replay = wal->Replay([&](const WalRecord& record) {
    if (replayed != nullptr) replayed->push_back(record);
    return Status::OK();
  });
  EXPECT_TRUE(replay.ok()) << replay.ToString();
  EXPECT_TRUE(wal->OpenForAppend().ok());
  return wal;
}

TEST(WalManagerTest, AppendSyncReplayRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  auto config = TestConfig(dir);
  {
    auto wal = OpenWal(config, nullptr);
    auto lsn1 = wal->Append(WalRecord::Statement("CREATE TABLE t (a INT)"));
    ASSERT_TRUE(lsn1.ok());
    auto lsn2 = wal->Append(WalRecord::Submit(7, "alice", "SELECT 1"));
    ASSERT_TRUE(lsn2.ok());
    EXPECT_LT(lsn1.value(), lsn2.value());
    ASSERT_TRUE(wal->Sync(lsn2.value()).ok());
  }
  std::vector<WalRecord> replayed;
  auto wal = OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].type, WalRecordType::kStatement);
  EXPECT_EQ(replayed[0].sql, "CREATE TABLE t (a INT)");
  EXPECT_EQ(replayed[1].type, WalRecordType::kSubmit);
  EXPECT_EQ(replayed[1].query_id, 7u);
  EXPECT_EQ(replayed[1].owner, "alice");
  EXPECT_EQ(wal->stats().recovered_records, 2u);
}

TEST(WalManagerTest, InstallRecordCarriesGroupAndWrites) {
  const std::string dir = FreshDir("install");
  auto config = TestConfig(dir);
  {
    auto wal = OpenWal(config, nullptr);
    WalRedoWrite write;
    write.kind = WalRedoWrite::Kind::kInsert;
    write.table = "Reservation";
    write.rid = 3;
    write.tuple = Tuple({Value::String("alice"), Value::Int64(101)});
    ASSERT_TRUE(wal->Append(WalRecord::Install({4, 9}, {write})).ok());
    ASSERT_TRUE(wal->SyncAll().ok());
  }
  std::vector<WalRecord> replayed;
  OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].type, WalRecordType::kInstall);
  EXPECT_EQ(replayed[0].group, (std::vector<uint64_t>{4, 9}));
  ASSERT_EQ(replayed[0].writes.size(), 1u);
  EXPECT_EQ(replayed[0].writes[0].table, "Reservation");
  EXPECT_EQ(replayed[0].writes[0].rid, 3u);
  EXPECT_EQ(replayed[0].writes[0].tuple.at(1), Value::Int64(101));
}

TEST(WalManagerTest, RotationSpansSegments) {
  const std::string dir = FreshDir("rotation");
  auto config = TestConfig(dir);
  config.segment_bytes = 256;  // force frequent rotation
  const int kRecords = 50;
  {
    auto wal = OpenWal(config, nullptr);
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(
          wal->Append(WalRecord::Statement("INSERT " + std::to_string(i)))
              .ok());
      ASSERT_TRUE(wal->SyncAll().ok());
    }
    EXPECT_GT(wal->stats().segments_created, 1u);
  }
  std::vector<WalRecord> replayed;
  OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(replayed[i].sql, "INSERT " + std::to_string(i));
  }
}

TEST(WalManagerTest, TornTailIsTruncatedOnReopen) {
  const std::string dir = FreshDir("torn");
  auto config = TestConfig(dir);
  std::string segment;
  {
    auto wal = OpenWal(config, nullptr);
    ASSERT_TRUE(wal->Append(WalRecord::Statement("keep me")).ok());
    ASSERT_TRUE(wal->SyncAll().ok());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segment = entry.path().string();
    }
  }
  ASSERT_FALSE(segment.empty());
  {
    // A partial frame at the tail: length header promising more bytes
    // than exist — what a crash mid-write leaves behind.
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    const uint32_t len = 1000;
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write("half", 4);
  }
  const auto torn_size = std::filesystem::file_size(segment);
  std::vector<WalRecord> replayed;
  auto wal = OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].sql, "keep me");
  // OpenForAppend truncated the garbage...
  EXPECT_LT(std::filesystem::file_size(segment), torn_size);
  // ...and the log accepts appends again.
  ASSERT_TRUE(wal->Append(WalRecord::Statement("after")).ok());
  ASSERT_TRUE(wal->SyncAll().ok());
  wal.reset();
  replayed.clear();
  OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[1].sql, "after");
}

TEST(WalManagerTest, CorruptedPayloadStopsReplayAtCrc) {
  const std::string dir = FreshDir("crc");
  auto config = TestConfig(dir);
  {
    auto wal = OpenWal(config, nullptr);
    ASSERT_TRUE(wal->Append(WalRecord::Statement("first")).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Statement("second")).ok());
    ASSERT_TRUE(wal->SyncAll().ok());
  }
  std::string segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segment = entry.path().string();
    }
  }
  // Flip the last payload byte (inside "second"); its CRC now fails, so
  // replay must stop after "first" — corrupt tail, not garbage data.
  {
    std::fstream f(segment,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    char last = 0;
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x01));
  }
  std::vector<WalRecord> replayed;
  OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].sql, "first");
}

TEST(WalManagerTest, CheckpointTruncatesOldSegments) {
  const std::string dir = FreshDir("checkpoint");
  auto config = TestConfig(dir);
  config.segment_bytes = 128;
  {
    auto wal = OpenWal(config, nullptr);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          wal->Append(WalRecord::Statement("pre " + std::to_string(i))).ok());
    }
    ASSERT_TRUE(wal->SyncAll().ok());
    CheckpointState state;
    state.next_query_id = 42;
    CheckpointTable table;
    table.name = "t";
    auto schema =
        Schema::Create({Column{"a", DataType::kInt64, false}});
    ASSERT_TRUE(schema.ok());
    table.schema = schema.TakeValue();
    table.slot_count = 1;
    table.rows.emplace_back(0, Tuple({Value::Int64(5)}));
    state.tables.push_back(std::move(table));
    state.pending.push_back(CheckpointPending{7, "bob", "SELECT 1"});
    ASSERT_TRUE(wal->WriteCheckpoint(std::move(state)).ok());
    EXPECT_GT(wal->stats().segments_deleted, 0u);
    // Post-checkpoint records replay on top of the snapshot.
    ASSERT_TRUE(wal->Append(WalRecord::Statement("post")).ok());
    ASSERT_TRUE(wal->SyncAll().ok());
  }
  std::vector<WalRecord> replayed;
  auto wal = OpenWal(config, &replayed);
  ASSERT_TRUE(wal->checkpoint().has_value());
  const CheckpointState& cp = *wal->checkpoint();
  EXPECT_EQ(cp.next_query_id, 42u);
  ASSERT_EQ(cp.tables.size(), 1u);
  EXPECT_EQ(cp.tables[0].name, "t");
  ASSERT_EQ(cp.pending.size(), 1u);
  EXPECT_EQ(cp.pending[0].owner, "bob");
  // Only "post" is in the live log; the 20 pre-checkpoint records are
  // inside the snapshot and their segments are gone.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].sql, "post");
}

TEST(WalManagerTest, GroupCommitConcurrentDurability) {
  const std::string dir = FreshDir("group");
  auto config = TestConfig(dir);
  const int kThreads = 8;
  const int kPerThread = 50;
  {
    auto wal = OpenWal(config, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto lsn = wal->Append(WalRecord::Statement(
              "t" + std::to_string(t) + ":" + std::to_string(i)));
          ASSERT_TRUE(lsn.ok());
          ASSERT_TRUE(wal->Sync(lsn.value()).ok());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const WalStats stats = wal->stats();
    EXPECT_EQ(stats.records_appended,
              static_cast<size_t>(kThreads * kPerThread));
    // The whole point: strictly fewer flushes than records.
    EXPECT_LE(stats.group_commit_batches, stats.records_appended);
    EXPECT_GT(stats.group_commit_batches, 0u);
  }
  std::vector<WalRecord> replayed;
  OpenWal(config, &replayed);
  EXPECT_EQ(replayed.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(WalManagerTest, SimulateCrashLosesOnlyUnsynced) {
  const std::string dir = FreshDir("crash");
  auto config = TestConfig(dir);
  {
    auto wal = OpenWal(config, nullptr);
    auto acked = wal->Append(WalRecord::Statement("acked"));
    ASSERT_TRUE(acked.ok());
    ASSERT_TRUE(wal->Sync(acked.value()).ok());
    ASSERT_TRUE(wal->Append(WalRecord::Statement("buffered")).ok());
    wal->SimulateCrash();
    EXPECT_TRUE(wal->crashed());
    // Everything after the crash fails.
    EXPECT_FALSE(wal->Append(WalRecord::Statement("late")).ok());
    EXPECT_FALSE(wal->SyncAll().ok());
  }
  std::vector<WalRecord> replayed;
  OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].sql, "acked");
}

TEST(WalManagerTest, CrashHookMidWriteLeavesTornRecord) {
  const std::string dir = FreshDir("hook");
  auto config = TestConfig(dir);
  {
    auto wal = OpenWal(config, nullptr);
    auto first = wal->Append(WalRecord::Statement("durable"));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(wal->Sync(first.value()).ok());
    std::atomic<bool> armed{true};
    wal->SetCrashHook([&armed](WalManager::CrashPoint point) {
      return point == WalManager::CrashPoint::kMidWrite &&
             armed.exchange(false);
    });
    auto lsn = wal->Append(WalRecord::Statement("torn victim"));
    ASSERT_TRUE(lsn.ok());
    EXPECT_FALSE(wal->Sync(lsn.value()).ok());  // crashed mid-flush
    EXPECT_TRUE(wal->crashed());
  }
  // Replay survives the half-written frame: the acknowledged record is
  // there, the torn one is not, and the log reopens clean.
  std::vector<WalRecord> replayed;
  auto wal = OpenWal(config, &replayed);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].sql, "durable");
  ASSERT_TRUE(wal->Append(WalRecord::Statement("recovered")).ok());
  ASSERT_TRUE(wal->SyncAll().ok());
}

TEST(WalManagerTest, FsyncCountsWithRealFsync) {
  const std::string dir = FreshDir("fsync");
  auto config = TestConfig(dir);
  config.fsync = true;
  auto wal = OpenWal(config, nullptr);
  ASSERT_TRUE(wal->Append(WalRecord::Statement("x")).ok());
  ASSERT_TRUE(wal->SyncAll().ok());
  EXPECT_GT(wal->stats().fsyncs, 0u);
}

}  // namespace
}  // namespace youtopia::wal
