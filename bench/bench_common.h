#ifndef YOUTOPIA_BENCH_BENCH_COMMON_H_
#define YOUTOPIA_BENCH_BENCH_COMMON_H_

// Shared workload helpers for the experiment benchmarks (see the
// per-experiment index in DESIGN.md and the results in EXPERIMENTS.md).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/client.h"

namespace youtopia::bench {

/// ClientOptions for a benchmark actor: owner-tagged, no history (the
/// drivers submit thousands of statements).
inline ClientOptions OwnerOptions(std::string owner) {
  return ClientOptions(std::move(owner), /*record=*/false);
}

/// Creates a Flights/Reservation database with `num_flights` flights to
/// `num_dests` destinations (round-robin) and indexes on the columns the
/// matcher probes.
inline std::unique_ptr<Youtopia> MakeFlightDb(int num_flights, int num_dests,
                                              uint64_t seed = 42) {
  YoutopiaConfig config;
  config.coordinator.match.rng_seed = seed;
  auto db = std::make_unique<Youtopia>(config);
  Status s = db->ExecuteScript(
      "CREATE TABLE Flights (fno INT NOT NULL, dest TEXT NOT NULL);"
      "CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL);"
      "CREATE INDEX ON Flights (dest);"
      "CREATE INDEX ON Reservation (traveler);");
  if (!s.ok()) std::abort();
  for (int f = 0; f < num_flights; ++f) {
    auto rid = db->storage().Insert(
        "Flights",
        Tuple({Value::Int64(100 + f),
               Value::String("City" + std::to_string(f % num_dests))}));
    if (!rid.ok()) std::abort();
  }
  return db;
}

/// The paper's pairwise entangled query (§2.1) for arbitrary names.
inline std::string PairSql(const std::string& self, const std::string& other,
                           const std::string& dest = "City0") {
  return "SELECT '" + self + "', fno INTO ANSWER Reservation WHERE fno IN "
         "(SELECT fno FROM Flights WHERE dest='" + dest + "') AND ('" +
         other + "', fno) IN ANSWER Reservation CHOOSE 1";
}

}  // namespace youtopia::bench

#endif  // YOUTOPIA_BENCH_BENCH_COMMON_H_
