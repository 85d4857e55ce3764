// Experiment WAL (DESIGN.md decision #8): what durability costs
// relative to the in-memory engine, and how many records group commit
// puts behind each fsync.
//
// Setup: N concurrent sessions, each inserting into its OWN table so
// 2PL never serializes them — the commits genuinely overlap, which is
// the case group commit exists for (concurrently-committing workers
// share one fsync). Two modes, each at 1 and N sessions:
//   off    wal.enabled = false (the durability overhead baseline)
//   group  wal.enabled: appends buffer, the sync leader flushes
//          everyone's records with one fsync
//
// Also measures the raw fsync latency of the bench directory's
// filesystem, since group commit exists to amortize exactly that cost.
//
// Standalone driver (no google-benchmark) so it can emit its own
// machine-readable summary: BENCH_wal.json (path overridable via
// argv[1]) — what CI's regression gate and artifact trail consume. The
// headline group_8s_records_per_fsync is the log records the N-session
// group leg wrote per fsync; a log that fsynced every record would read
// 1. Exits non-zero below kMinRecordsPerFsync.
//
// Usage: bench_wal [output.json] [commits_per_session] [sessions]

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/youtopia.h"

namespace {

using namespace youtopia;  // NOLINT(build/namespaces) — bench driver

const char* kBenchDir = "bench_wal_data";
// Floor on group_8s_records_per_fsync: half the smallest of five runs
// on a 4-core host (4.00-4.04). A log that fsynced each record reads 1.
constexpr double kMinRecordsPerFsync = 2.0;

struct RunResult {
  double commits_per_sec = 0.0;
  /// Records appended per fsync during the timed phase (0 when the WAL
  /// is off).
  double records_per_fsync = 0.0;
};

/// Raw fsync latency on the bench directory's filesystem — the cost
/// group commit amortizes.
double MeasureFsyncMicros(int iters) {
  std::filesystem::create_directories(kBenchDir);
  const std::string path = std::string(kBenchDir) + "/fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) std::abort();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    if (::write(fd, "x", 1) != 1) std::abort();
    if (::fsync(fd) != 0) std::abort();
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ::close(fd);
  std::filesystem::remove(path);
  return static_cast<double>(micros) / static_cast<double>(iters);
}

/// `sessions` threads, each committing `commits` single-row INSERTs
/// into its own table, with the WAL on or off.
RunResult Run(bool wal, int sessions, int commits) {
  const std::string dir = std::string(kBenchDir) + "/run";
  std::filesystem::remove_all(dir);

  YoutopiaConfig config;
  if (wal) {
    config.wal.enabled = true;
    config.wal.dir = dir;
    config.wal.checkpoint_on_shutdown = false;  // measure appends only
  }
  auto db = std::make_unique<Youtopia>(config);
  std::string schema_script;
  for (int s = 0; s < sessions; ++s) {
    schema_script += "CREATE TABLE t" + std::to_string(s) +
                     " (id INT NOT NULL, note TEXT NOT NULL);";
  }
  if (!db->ExecuteScript(schema_script).ok()) std::abort();

  const wal::WalStats before = wal ? db->wal()->stats() : wal::WalStats();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&db, s, commits] {
      const std::string table = "t" + std::to_string(s);
      for (int i = 0; i < commits; ++i) {
        auto result = db->Execute("INSERT INTO " + table + " VALUES (" +
                                  std::to_string(i) + ", 'payload')");
        if (!result.ok()) std::abort();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  RunResult result;
  if (wal) {
    const wal::WalStats after = db->wal()->stats();
    const size_t fsyncs = after.fsyncs - before.fsyncs;
    result.records_per_fsync =
        fsyncs > 0 ? static_cast<double>(after.records_appended -
                                         before.records_appended) /
                         static_cast<double>(fsyncs)
                   : 0.0;
  }
  db.reset();
  std::filesystem::remove_all(dir);
  const double total =
      static_cast<double>(sessions) * static_cast<double>(commits);
  result.commits_per_sec =
      micros > 0 ? total * 1e6 / static_cast<double>(micros) : 0.0;
  return result;
}

/// The run with the highest throughput out of `trials`: fsync-bound
/// measurements are noisy (the flusher races the page cache and
/// whatever else the machine is doing), and peak throughput is what the
/// mode is capable of.
RunResult Best(bool wal, int sessions, int commits, int trials) {
  RunResult best;
  for (int t = 0; t < trials; ++t) {
    const RunResult run = Run(wal, sessions, commits);
    if (run.commits_per_sec > best.commits_per_sec) best = run;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_wal.json";
  const int commits = argc > 2 ? std::atoi(argv[2]) : 250;
  const int sessions = argc > 3 ? std::atoi(argv[3]) : 8;
  const int trials = 3;

  const double fsync_us = MeasureFsyncMicros(200);
  std::printf("raw fsync: %.1f us\n", fsync_us);

  const RunResult off_1 = Best(false, 1, commits, trials);
  const RunResult off_n = Best(false, sessions, commits, trials);
  const RunResult group_1 = Best(true, 1, commits, trials);
  const RunResult group_n = Best(true, sessions, commits, trials);
  std::filesystem::remove_all(kBenchDir);

  std::printf("commits/s (1 session):  off %.0f, group-commit %.0f\n",
              off_1.commits_per_sec, group_1.commits_per_sec);
  std::printf("commits/s (%d sessions): off %.0f, group-commit %.0f\n",
              sessions, off_n.commits_per_sec, group_n.commits_per_sec);
  std::printf("records per fsync at %d sessions: %.2f\n", sessions,
              group_n.records_per_fsync);

  const bool ok = group_n.records_per_fsync >= kMinRecordsPerFsync;
  if (!ok) {
    std::fprintf(stderr, "FAIL: %.2f records per fsync below the %.1f floor\n",
                 group_n.records_per_fsync, kMinRecordsPerFsync);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"wal\",\n"
               "  \"commits_per_session\": %d,\n"
               "  \"sessions\": %d,\n"
               "  \"fsync_us\": %.2f,\n"
               "  \"off_1s_commits_per_sec\": %.1f,\n"
               "  \"off_8s_commits_per_sec\": %.1f,\n"
               "  \"group_1s_commits_per_sec\": %.1f,\n"
               "  \"group_8s_commits_per_sec\": %.1f,\n"
               "  \"group_8s_records_per_fsync\": %.3f\n}\n",
               commits, sessions, fsync_us, off_1.commits_per_sec,
               off_n.commits_per_sec, group_1.commits_per_sec,
               group_n.commits_per_sec, group_n.records_per_fsync);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
