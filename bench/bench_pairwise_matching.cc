// Experiment S1 (DESIGN.md): "Book a flight with a friend" — pairwise
// coordination cost as a function of database size. Regenerates the
// latency series reported in EXPERIMENTS.md §S1.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"

namespace youtopia::bench {
namespace {

/// Full pairwise round: submit the waiting half, then the partner whose
/// arrival triggers match + grounding + atomic install. Flights swept.
void BM_PairwiseCoordination(benchmark::State& state) {
  auto db = MakeFlightDb(static_cast<int>(state.range(0)), /*num_dests=*/4);
  Client client(db.get(), OwnerOptions("bench"));
  int64_t pair = 0;
  for (auto _ : state) {
    const std::string a = "A" + std::to_string(pair);
    const std::string b = "B" + std::to_string(pair);
    ++pair;
    auto ha = client.SubmitAs(a, PairSql(a, b));
    auto hb = client.SubmitAs(b, PairSql(b, a));
    if (!ha.ok() || !hb.ok() || !hb->Done()) std::abort();
    benchmark::DoNotOptimize(hb->Answers());
  }
  state.counters["flights"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PairwiseCoordination)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Arg(4096)->Unit(benchmark::kMicrosecond);

/// The waiting half alone: registration cost of a query that cannot be
/// answered yet (it probes the pool and stored answers, then parks).
void BM_RegistrationOnly(benchmark::State& state) {
  auto db = MakeFlightDb(static_cast<int>(state.range(0)), /*num_dests=*/4);
  Client client(db.get(), OwnerOptions("bench"));
  int64_t n = 0;
  for (auto _ : state) {
    const std::string a = "A" + std::to_string(n);
    const std::string b = "B" + std::to_string(n);
    ++n;
    auto handle = client.SubmitAs(a, PairSql(a, b));
    if (!handle.ok() || handle->Done()) std::abort();
  }
  state.counters["flights"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_RegistrationOnly)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// Browse-then-book path (S1 alternate): the partner constraint is
/// satisfied by an already-stored answer rather than a pending query.
void BM_BookAgainstStoredAnswer(benchmark::State& state) {
  auto db = MakeFlightDb(1024, /*num_dests=*/4);
  Client client(db.get(), OwnerOptions("bench"));
  int64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string a = "A" + std::to_string(n);
    const std::string b = "B" + std::to_string(n);
    ++n;
    // b books directly; a's constraint will hit the stored tuple.
    auto direct = client.SubmitAs(
        b, "SELECT '" + b + "', fno INTO ANSWER Reservation WHERE fno IN "
           "(SELECT fno FROM Flights WHERE dest='City0') CHOOSE 1");
    if (!direct.ok() || !direct->Done()) std::abort();
    state.ResumeTiming();
    auto handle = client.SubmitAs(a, PairSql(a, b));
    if (!handle.ok() || !handle->Done()) std::abort();
  }
}
BENCHMARK(BM_BookAgainstStoredAnswer)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace youtopia::bench
