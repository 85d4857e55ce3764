// Experiment MVCC (DESIGN.md decision #10): browse throughput of the
// lock-free snapshot SELECT path under a sweep of concurrent writers
// shaped like the travel mix's bookings: multi-row transactions that
// hold their exclusive table locks across a coordination window (an
// entangled booking parked mid-round) before committing. Under 2PL
// reads every browse would queue behind that idle-held X lock; snapshot
// SELECTs never block on it, so browsing should keep most of its
// uncontended rate as writers are added.
//
// Standalone driver (no google-benchmark) so it can emit its own
// machine-readable summary: BENCH_mvcc.json (path overridable via
// argv[1]), including the headline mvcc_browse_4w_over_0w — browse
// throughput at 4 writers over browse throughput at 0 writers. The
// program exits non-zero when it falls below kMinBrowseRetention.
//
// Usage: bench_mvcc [output.json] [leg_ms] [rows]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/youtopia.h"

namespace {

using namespace youtopia;  // NOLINT(build/namespaces) — bench driver

constexpr int kReaders = 4;
// Each write transaction touches a handful of rows and then holds its
// locks across a simulated coordination round before committing — the
// entangled-booking shape (install happens only once the whole group
// matches, with the 2PL locks held throughout the wait).
constexpr int kRowsPerWriteTxn = 8;
constexpr int kHoldUs = 10000;
// Floor on mvcc_browse_4w_over_0w: about half the smallest of five
// runs on a 4-core host (0.76-1.15). Browses that queued behind the
// writers' held locks would keep a small fraction of their rate (2PL
// reads kept 0.17 on a 1-core host and under 0.003 on the 4-core one).
constexpr double kMinBrowseRetention = 0.35;

struct LegResult {
  size_t num_versions = 0;
  size_t writers = 0;
  size_t reads = 0;
  size_t read_errors = 0;
  size_t updates = 0;
  double wall_ms = 0.0;
  double reads_per_sec = 0.0;
  double updates_per_sec = 0.0;
};

std::unique_ptr<Youtopia> MakeDb(int rows) {
  auto db = std::make_unique<Youtopia>();
  if (!db->Execute("CREATE TABLE Inv (id INT, qty INT, price INT)").ok()) {
    std::abort();
  }
  for (int i = 0; i < rows; ++i) {
    const std::string sql = "INSERT INTO Inv VALUES (" + std::to_string(i) +
                            ", 0, " + std::to_string((i * 37) % 1000) + ")";
    if (!db->Execute(sql).ok()) std::abort();
  }
  // Point browses go through the hash index: the interesting cost in
  // this experiment is lock waiting, not scan CPU, so the read itself
  // is kept cheap.
  if (!db->Execute("CREATE INDEX ON Inv (id)").ok()) std::abort();
  return db;
}

/// One fixed-duration leg: kReaders browse threads and `writers`
/// booking-shaped write transactions (kRowsPerWriteTxn updates, then
/// kHoldUs of lock-held coordination wait, then commit) against a fresh
/// instance. Reads that fail count as errors, not throughput — the
/// metric is *successful* browses per second, which is what a middle
/// tier actually serves.
LegResult RunLeg(size_t writers, std::chrono::milliseconds leg, int rows) {
  auto db = MakeDb(rows);
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> updates{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Indexed point browses across the table: each statement's
      // in-engine time is tiny, so what the sweep measures is how long
      // a browse is slowed by the writers, whose held X locks a
      // snapshot read never waits for.
      size_t n = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t id =
            static_cast<int64_t>((n++ * 13) % static_cast<size_t>(rows));
        const std::string sql =
            "SELECT id, qty FROM Inv WHERE id = " + std::to_string(id);
        if (db->Execute(sql).ok()) {
          reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      TxnManager& txns = db->txn_manager();
      size_t base = w * 131;
      int64_t seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto txn = txns.Begin();
        bool ok = true;
        for (int k = 0; k < kRowsPerWriteTxn && ok; ++k) {
          const RowId rid =
              static_cast<RowId>((base + static_cast<size_t>(k) * 7) %
                                 static_cast<size_t>(rows));
          const Tuple t({Value::Int64(static_cast<int64_t>(rid)),
                         Value::Int64(++seq),
                         Value::Int64(static_cast<int64_t>((rid * 37) % 1000))});
          ok = txns.Update(txn.get(), "Inv", rid, t).ok();
        }
        if (!ok) {
          (void)txns.Abort(txn.get());
          continue;
        }
        // The coordination window: locks stay held, CPU stays idle.
        std::this_thread::sleep_for(std::chrono::microseconds(kHoldUs));
        if (txns.Commit(txn.get()).ok()) {
          updates.fetch_add(1, std::memory_order_relaxed);
        }
        base += 31;
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(leg);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double wall_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  LegResult result;
  result.num_versions = db->storage().num_versions();
  result.writers = writers;
  result.reads = reads.load();
  result.read_errors = read_errors.load();
  result.updates = updates.load();
  result.wall_ms = wall_us / 1000.0;
  result.reads_per_sec =
      wall_us > 0 ? static_cast<double>(result.reads) * 1e6 / wall_us : 0.0;
  result.updates_per_sec =
      wall_us > 0 ? static_cast<double>(result.updates) * 1e6 / wall_us : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_mvcc.json";
  const int leg_ms = argc > 2 ? std::atoi(argv[2]) : 400;
  const int rows = argc > 3 ? std::atoi(argv[3]) : 800;

  const size_t writer_sweep[] = {0, 1, 2, 4};
  std::vector<LegResult> legs;
  std::printf("%-10s %-8s %-9s %-12s %-9s %s\n", "versions", "writers",
              "reads", "reads/s", "rd_errs", "write_txns/s");
  for (size_t writers : writer_sweep) {
    LegResult leg = RunLeg(writers, std::chrono::milliseconds(leg_ms), rows);
    std::printf("%-10zu %-8zu %-9zu %-12.1f %-9zu %.1f\n", leg.num_versions,
                leg.writers, leg.reads, leg.reads_per_sec, leg.read_errors,
                leg.updates_per_sec);
    legs.push_back(leg);
  }

  // Headline: successful-browse throughput on the most contended leg
  // (writers = 4) over the uncontended one (writers = 0).
  const size_t headline_writers = writer_sweep[3];
  const double uncontended = legs.front().reads_per_sec;
  const double contended = legs.back().reads_per_sec;
  const double retention = uncontended > 0.0 ? contended / uncontended : 0.0;
  std::printf("browse retention (%zu writers over 0, %d readers): %.3f\n",
              headline_writers, kReaders, retention);
  const bool ok = retention >= kMinBrowseRetention;
  if (!ok) {
    std::fprintf(stderr, "FAIL: browse retention %.3f below the %.2f floor\n",
                 retention, kMinBrowseRetention);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"mvcc\",\n"
               "  \"workload\": \"indexed browses vs booking txns holding "
               "locks across a coordination window\",\n"
               "  \"rows\": %d,\n  \"readers\": %d,\n  \"leg_ms\": %d,\n"
               "  \"rows_per_write_txn\": %d,\n  \"lock_hold_us\": %d,\n"
               "  \"legs\": [\n",
               rows, kReaders, leg_ms, kRowsPerWriteTxn, kHoldUs);
  for (size_t i = 0; i < legs.size(); ++i) {
    const LegResult& leg = legs[i];
    std::fprintf(out,
                 "    {\"num_versions\": %zu, "
                 "\"writers\": %zu, \"reads\": %zu, \"read_errors\": %zu, "
                 "\"reads_per_sec\": %.1f, \"write_txns\": %zu, "
                 "\"write_txns_per_sec\": %.1f, \"wall_ms\": %.1f}%s\n",
                 leg.num_versions, leg.writers, leg.reads,
                 leg.read_errors, leg.reads_per_sec, leg.updates,
                 leg.updates_per_sec, leg.wall_ms,
                 i + 1 < legs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"headline_writers\": %zu,\n"
               "  \"mvcc_browse_reads_per_sec\": %.1f,\n"
               "  \"mvcc_uncontended_reads_per_sec\": %.1f,\n"
               "  \"mvcc_browse_4w_over_0w\": %.3f\n}\n",
               std::thread::hardware_concurrency(), headline_writers,
               contended, uncontended, retention);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
