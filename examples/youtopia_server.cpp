// The engine as a network service: one embedded Youtopia behind the
// wire protocol, shared by every RemoteClient that connects — the
// paper's deployment shape, where many middle tiers drive one
// entangled-query engine.
//
// Usage: youtopia_server [port] [shards] [workers] [--travel]
//                        [--data-dir <path>] [--admission <n>]
//                        [--metrics-port <n>]
//
//   port      TCP port to bind on 127.0.0.1 (0 = kernel-assigned;
//             the actual port is printed on the READY line)
//   shards    accepted for compatibility and ignored: the coordinator
//             is one mutex over one pending pool
//   workers   executor-service pool size (default 0 = inline)
//   --travel  pre-load the travel schema + a generated dataset, so
//             remote clients can book immediately
//   --data-dir <path>
//             enable the write-ahead log under <path>: tables and
//             pending coordinations survive a kill — restart with the
//             same directory and a half-arrived pair is still waiting
//             for its partner. With --travel, seeding is skipped when
//             the recovered state already has the schema.
//   --admission <n>
//             shed statements with kOverloaded once the executor queue
//             reaches n (0 = off, the default): the front door degrades
//             by rejecting early instead of queueing without bound
//   --metrics-port <n>
//             serve the plaintext metrics page on this port (0 =
//             kernel-assigned; the bound port joins the READY line)
//
// Prints "READY port=<n> ..." once accepting, then serves until stdin
// reaches EOF (pipe-friendly: close the pipe to stop it), shuts down
// and exits 0 — what the CI loopback smoke asserts.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/server.h"
#include "travel/data_generator.h"
#include "travel/travel_schema.h"

int main(int argc, char** argv) {
  using namespace youtopia;  // NOLINT(build/namespaces) — example code

  int port = 0;
  int workers = 0;
  bool travel_seed = false;
  const char* data_dir = nullptr;
  int admission = 0;
  int metrics_port = -1;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--travel") == 0) {
      travel_seed = true;
      continue;
    }
    if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--admission") == 0 && i + 1 < argc) {
      admission = std::atoi(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      metrics_port = std::atoi(argv[++i]);
      continue;
    }
    const int v = std::atoi(argv[i]);
    if (positional == 0) port = v;
    if (positional == 2) workers = v;
    ++positional;
  }

  YoutopiaConfig config;
  config.executor.num_workers =
      workers > 0 ? static_cast<size_t>(workers) : 0;
  config.executor.admission_high_water =
      admission > 0 ? static_cast<size_t>(admission) : 0;
  if (data_dir != nullptr) {
    config.wal.enabled = true;
    config.wal.dir = data_dir;
  }
  Youtopia db(config);
  if (data_dir != nullptr && !db.recovery_status().ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 db.recovery_status().ToString().c_str());
    return 1;
  }
  if (data_dir != nullptr) {
    const auto wal_stats = db.wal()->stats();
    std::printf("recovered %zu record(s), %zu pending coordination(s)\n",
                wal_stats.recovered_records,
                db.coordinator().pending_count());
  }
  // On a recovered data dir the schema (and bookings) are already
  // there; reseeding would fail on CREATE TABLE and double the data.
  if (travel_seed && db.storage().catalog().HasTable("Flights")) {
    std::printf("travel dataset recovered, skipping seed\n");
    travel_seed = false;
  }
  if (travel_seed) {
    if (!travel::CreateTravelSchema(&db).ok()) return 1;
    travel::DataGeneratorConfig data;
    data.cities = {"NewYork", "Paris", "Rome"};
    data.flights_per_route_per_day = 4;
    data.days = 3;
    if (!travel::GenerateTravelData(&db, data).ok()) return 1;
    std::printf("travel dataset loaded\n");
  }

  net::ServerConfig server_config;
  server_config.port = static_cast<uint16_t>(port);
  server_config.metrics_port = metrics_port;
  net::YoutopiaServer server(&db, server_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("READY port=%u workers=%zu admission=%zu metrics_port=%u\n",
              server.port(), config.executor.num_workers,
              config.executor.admission_high_water, server.metrics_port());
  std::fflush(stdout);

  while (std::fgetc(stdin) != EOF) {
  }

  server.Stop();
  const auto stats = server.stats();
  std::printf(
      "youtopia_server: clean shutdown (connections=%zu requests=%zu "
      "shed=%zu pushes=%zu protocol_errors=%zu)\n",
      stats.connections_accepted, stats.requests, stats.shed, stats.pushes,
      stats.protocol_errors);
  return 0;
}
