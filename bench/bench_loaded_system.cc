// Experiments S3 + SCALE (DESIGN.md): coordination on a loaded system.
// The paper demonstrates "the scalability of our coordination algorithm
// by allowing our examples to be run on a loaded system, where a large
// number of entangled queries are trying to coordinate simultaneously"
// (§3). Here the load is a pool of N waiting queries whose partners have
// not arrived; we measure how the cost of coordinating a fresh pair
// grows with N — with and without the signature-partitioned pool
// (ablation of design decision #1).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"

namespace youtopia::bench {
namespace {

std::unique_ptr<Youtopia> MakeLoadedDb(int pool_size, bool signature_index,
                                       size_t workers = 0) {
  YoutopiaConfig config;
  config.coordinator.match.use_signature_index = signature_index;
  config.executor.num_workers = workers;
  auto db = std::make_unique<Youtopia>(config);
  Status s = db->ExecuteScript(
      "CREATE TABLE Flights (fno INT NOT NULL, dest TEXT NOT NULL);"
      "CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL);"
      "CREATE INDEX ON Flights (dest);"
      "CREATE INDEX ON Reservation (traveler);");
  if (!s.ok()) std::abort();
  for (int f = 0; f < 256; ++f) {
    auto rid = db->storage().Insert(
        "Flights", Tuple({Value::Int64(100 + f),
                          Value::String("City" + std::to_string(f % 4))}));
    if (!rid.ok()) std::abort();
  }
  // N lonely queries: partners never arrive, so they stay pending and
  // every future matching round must consider (and reject) them.
  // Registered as one batch — a single coordinator round instead of N,
  // which makes the 10k-pool setup tractable.
  std::vector<std::string> statements;
  std::vector<std::string> owners;
  statements.reserve(pool_size);
  owners.reserve(pool_size);
  for (int i = 0; i < pool_size; ++i) {
    const std::string self = "lonely" + std::to_string(i);
    owners.push_back(self);
    statements.push_back(PairSql(self, "ghost" + std::to_string(i)));
  }
  auto handles = db->SubmitBatch(statements, owners);
  if (!handles.ok()) std::abort();
  for (const auto& handle : *handles) {
    if (handle.Done()) std::abort();
  }
  return db;
}

void RunLoadedPair(benchmark::State& state, bool signature_index) {
  auto db = MakeLoadedDb(static_cast<int>(state.range(0)), signature_index);
  Client client(db.get(), OwnerOptions("bench"));
  int64_t pair = 0;
  for (auto _ : state) {
    const std::string a = "A" + std::to_string(pair);
    const std::string b = "B" + std::to_string(pair);
    ++pair;
    auto ha = client.SubmitAs(a, PairSql(a, b));
    auto hb = client.SubmitAs(b, PairSql(b, a));
    if (!ha.ok() || !hb.ok() || !hb->Done()) std::abort();
  }
  state.counters["pending_pool"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["matches_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_LoadedSystem_SignatureIndex(benchmark::State& state) {
  RunLoadedPair(state, /*signature_index=*/true);
}
BENCHMARK(BM_LoadedSystem_SignatureIndex)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(5000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Ablation: every pending query is considered as a candidate provider
/// for every obligation.
void BM_LoadedSystem_NoSignatureIndex(benchmark::State& state) {
  RunLoadedPair(state, /*signature_index=*/false);
}
BENCHMARK(BM_LoadedSystem_NoSignatureIndex)
    ->Arg(10)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMicrosecond);

/// Throughput with an all-matching load: 2N queries arrive interleaved
/// (all firsts, then all partners); reports end-to-end matches/sec.
void BM_LoadedSystem_DrainThroughput(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto db = MakeLoadedDb(/*pool_size=*/0, /*signature_index=*/true);
    state.ResumeTiming();
    for (int i = 0; i < pairs; ++i) {
      auto h = db->Submit(PairSql("A" + std::to_string(i),
                                  "B" + std::to_string(i)),
                          "A");
      if (!h.ok()) std::abort();
    }
    for (int i = 0; i < pairs; ++i) {
      auto h = db->Submit(PairSql("B" + std::to_string(i),
                                  "A" + std::to_string(i)),
                          "B");
      if (!h.ok() || !h->Done()) std::abort();
    }
    if (db->coordinator().pending_count() != 0) std::abort();
  }
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * pairs * 2),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LoadedSystem_DrainThroughput)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// Async drain: the same all-matching pairwise load, driven through the
/// executor service — ONE submitter thread packages every statement as
/// a StatementTask (a fresh session per task, so nothing serializes on
/// FIFO order) and `workers` pool threads drive the statement path.
/// Args: (pairs, workers).
void BM_LoadedSystem_AsyncDrain(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  const size_t workers = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    auto db = MakeLoadedDb(/*pool_size=*/0, /*signature_index=*/true, workers);
    ExecutorService& exec = db->executor_service();
    state.ResumeTiming();
    for (int i = 0; i < 2 * pairs; ++i) {
      const int pair = i / 2;
      const bool first = (i % 2) == 0;
      const std::string self =
          (first ? "A" : "B") + std::to_string(pair);
      const std::string other =
          (first ? "B" : "A") + std::to_string(pair);
      StatementTask task;
      task.sql = PairSql(self, other);
      task.owner = self;
      task.session = ExecutorService::AllocateSessionId();
      if (!exec.Submit(std::move(task)).ok()) std::abort();
    }
    if (!exec.Drain(std::chrono::milliseconds(60000)).ok()) std::abort();
    if (db->coordinator().pending_count() != 0) std::abort();
  }
  state.counters["workers"] = benchmark::Counter(static_cast<double>(workers));
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * pairs * 2),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LoadedSystem_AsyncDrain)
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})->Args({1024, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace youtopia::bench
