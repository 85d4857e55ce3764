// Experiment SUB (DESIGN.md): substrate microbenchmarks — the storage
// and execution engine operations every coordination round bottoms out
// in (scans, index probes, inserts, plan execution).

#include <benchmark/benchmark.h>

#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/storage_engine.h"

namespace youtopia::bench {
namespace {

std::unique_ptr<StorageEngine> MakeEngine(int rows, bool with_index) {
  auto engine = std::make_unique<StorageEngine>();
  Status s = engine->CreateTable(
      "Flights", Schema({{"fno", DataType::kInt64, false},
                         {"dest", DataType::kString, false},
                         {"price", DataType::kInt64, false}}));
  if (!s.ok()) std::abort();
  if (with_index) {
    if (!engine->CreateIndex("Flights", "dest").ok()) std::abort();
  }
  for (int f = 0; f < rows; ++f) {
    auto rid = engine->Insert(
        "Flights", Tuple({Value::Int64(f),
                          Value::String("City" + std::to_string(f % 16)),
                          Value::Int64(100 + f % 900)}));
    if (!rid.ok()) std::abort();
  }
  return engine;
}

void BM_HeapInsert(benchmark::State& state) {
  auto engine = MakeEngine(0, /*with_index=*/false);
  int64_t f = 0;
  for (auto _ : state) {
    auto rid = engine->Insert(
        "Flights", Tuple({Value::Int64(f++), Value::String("City0"),
                          Value::Int64(100)}));
    benchmark::DoNotOptimize(rid);
  }
}
BENCHMARK(BM_HeapInsert);

void BM_IndexedInsert(benchmark::State& state) {
  auto engine = MakeEngine(0, /*with_index=*/true);
  int64_t f = 0;
  for (auto _ : state) {
    auto rid = engine->Insert(
        "Flights", Tuple({Value::Int64(f++), Value::String("City0"),
                          Value::Int64(100)}));
    benchmark::DoNotOptimize(rid);
  }
}
BENCHMARK(BM_IndexedInsert);

void BM_FullScan(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<int>(state.range(0)),
                           /*with_index=*/false);
  for (auto _ : state) {
    auto rows = engine->Scan("Flights");
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_FullScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IndexProbe(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<int>(state.range(0)),
                           /*with_index=*/true);
  for (auto _ : state) {
    auto rows = engine->Probe("Flights", {{1, Value::String("City3")}});
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_IndexProbe)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SelectViaSeqScan(benchmark::State& state) {
  auto engine = MakeEngine(10000, /*with_index=*/false);
  Executor executor(engine.get());
  auto stmt = Parser::ParseStatement(
      "SELECT fno FROM Flights WHERE price < 200");
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    auto result = executor.Execute(*stmt.value());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectViaSeqScan)->Unit(benchmark::kMicrosecond);

void BM_SelectViaIndexScan(benchmark::State& state) {
  auto engine = MakeEngine(10000, /*with_index=*/true);
  Executor executor(engine.get());
  auto stmt = Parser::ParseStatement(
      "SELECT fno FROM Flights WHERE dest = 'City3'");
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    auto result = executor.Execute(*stmt.value());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectViaIndexScan)->Unit(benchmark::kMicrosecond);

void BM_TwoTableJoin(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<int>(state.range(0)),
                           /*with_index=*/false);
  Status s = engine->CreateTable(
      "Airlines", Schema({{"fno", DataType::kInt64, false},
                          {"airline", DataType::kString, false}}));
  if (!s.ok()) std::abort();
  for (int f = 0; f < state.range(0); ++f) {
    auto rid = engine->Insert("Airlines",
                              Tuple({Value::Int64(f),
                                     Value::String("United")}));
    if (!rid.ok()) std::abort();
  }
  Executor executor(engine.get());
  auto stmt = Parser::ParseStatement(
      "SELECT f.fno, a.airline FROM Flights f, Airlines a "
      "WHERE f.fno = a.fno AND f.price < 150");
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    auto result = executor.Execute(*stmt.value());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_TwoTableJoin)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace youtopia::bench
