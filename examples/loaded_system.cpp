// The demo's loaded-system mode (paper §3): the travel examples run
// while a large number of entangled queries coordinate simultaneously.
// This driver sweeps session counts and prints throughput and latency
// percentiles.
//
// Usage: loaded_system [sessions] [requests_per_session] [shards] [workers]
//                      [loopback] [--data-dir <path>]
//        loaded_system --connect host:port [sessions] [requests_per_session]
//
// The shards argument is accepted for compatibility and ignored: the
// coordinator is one mutex over one pending pool.
//
// --data-dir <path> enables the write-ahead log (one subdirectory per
// session sweep, so each fresh engine recovers its own log) — the same
// workload with durability on, showing what group commit costs under
// coordination load.
//
// workers > 0 switches the driver to the async executor surface: one
// thread submits every request as a StatementTask and a pool of that
// many workers drives the whole statement path (per-session FIFO
// preserved). 0 (default) keeps the seed's thread-per-session mode.
//
// The trailing "loopback" argument starts an in-process YoutopiaServer
// and drives the same workload through a RemoteClient over TCP — the
// wire protocol's overhead is the delta against the plain run. With
// --connect the driver is purely a remote middle tier against an
// already-running youtopia_server (started with --travel so the
// dataset exists).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/remote_client.h"
#include "net/server.h"
#include "travel/data_generator.h"
#include "travel/travel_schema.h"
#include "travel/workload.h"

namespace {

using namespace youtopia;  // NOLINT(build/namespaces) — example code

Status SeedTravel(Youtopia* db) {
  YOUTOPIA_RETURN_IF_ERROR(travel::CreateTravelSchema(db));
  travel::DataGeneratorConfig data;
  data.cities = {"NewYork", "Paris", "Rome"};
  data.flights_per_route_per_day = 4;
  data.days = 3;
  return travel::GenerateTravelData(db, data).status();
}

travel::WorkloadConfig MakeConfig(int sessions, int requests) {
  travel::WorkloadConfig config;
  config.sessions = sessions;
  config.requests_per_session = requests;
  config.group_fraction = 0.2;
  config.hotel_fraction = 0.3;
  return config;
}

int PrintReport(int sessions, const Result<travel::WorkloadReport>& report) {
  if (!report.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("%-10d %-10zu %-14.1f %s\n", sessions, report->submitted,
              report->SatisfiedPerSecond(),
              report->latency.ToString().c_str());
  if (report->timed_out > 0 || report->errors > 0) {
    std::printf("  !! timed_out=%zu errors=%zu\n", report->timed_out,
                report->errors);
  }
  return 0;
}

/// Remote middle-tier mode against an external youtopia_server.
int RunConnected(const std::string& endpoint, int sessions, int requests) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect needs host:port\n");
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  // A middle tier outlives server restarts and rides out admission
  // sheds: redial a dropped link and retry kOverloaded a few times
  // before surfacing it to the workload.
  net::ReconnectPolicy resilience;
  resilience.reconnect = true;
  resilience.overload_retry_budget = 4;
  auto client = net::RemoteClient::Connect(
      host, static_cast<uint16_t>(port),
      ClientOptions("travel", /*record=*/false), net::kMaxFrameBytes,
      resilience);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s failed: %s\n", endpoint.c_str(),
                 client.status().ToString().c_str());
    return 1;
  }
  std::printf("connected to %s; %d sessions x %d requests\n",
              endpoint.c_str(), sessions, requests);
  auto report = travel::RunLoadedWorkload(
      static_cast<ClientInterface*>(client->get()), "Paris",
      MakeConfig(sessions, requests));
  const int rc = PrintReport(sessions, report);
  if (rc == 0 && report->timed_out == 0 && report->errors == 0) {
    std::printf("remote workload complete: all %zu requests satisfied\n",
                report->submitted);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 && std::strcmp(argv[1], "--connect") == 0) {
    const int sessions = argc > 3 ? std::atoi(argv[3]) : 4;
    const int requests = argc > 4 ? std::atoi(argv[4]) : 25;
    return RunConnected(argv[2], sessions, requests);
  }

  const char* data_dir = nullptr;
  int positional_ints[4] = {16, 50, 1, 0};
  bool loopback = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "loopback") == 0) {
      loopback = true;
      continue;
    }
    if (positional < 4) positional_ints[positional] = std::atoi(argv[i]);
    ++positional;
  }
  const int max_sessions = positional_ints[0];
  const int requests = positional_ints[1];
  const int workers = positional_ints[3];

  std::printf("executor workers: %d%s%s%s\n", workers,
              loopback ? ", loopback wire protocol" : "",
              data_dir != nullptr ? ", wal data dir " : "",
              data_dir != nullptr ? data_dir : "");
  std::printf("%-10s %-10s %-14s %s\n", "sessions", "requests",
              "satisfied/s", "latency");
  for (int sessions = 2; sessions <= max_sessions; sessions *= 2) {
    YoutopiaConfig db_config;
    db_config.executor.num_workers =
        workers > 0 ? static_cast<size_t>(workers) : 0;
    if (data_dir != nullptr) {
      db_config.wal.enabled = true;
      db_config.wal.dir =
          std::string(data_dir) + "/s" + std::to_string(sessions);
    }
    Youtopia db(db_config);
    if (data_dir != nullptr && !db.recovery_status().ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   db.recovery_status().ToString().c_str());
      return 1;
    }
    // A re-run over an existing data dir recovers the previous dataset;
    // reseeding would collide on CREATE TABLE.
    if (!db.storage().catalog().HasTable("Flights") &&
        !SeedTravel(&db).ok()) {
      return 1;
    }

    const auto config = MakeConfig(sessions, requests);
    Result<travel::WorkloadReport> report = Status::OK();
    if (loopback) {
      net::YoutopiaServer server(&db);
      if (!server.Start().ok()) return 1;
      auto client = net::RemoteClient::Connect(
          "127.0.0.1", server.port(),
          ClientOptions("travel", /*record=*/false));
      if (!client.ok()) return 1;
      report = travel::RunLoadedWorkload(
          static_cast<ClientInterface*>(client->get()), "Paris", config);
    } else {
      report = travel::RunLoadedWorkload(&db, "Paris", config);
    }
    if (PrintReport(sessions, report) != 0) return 1;
  }
  return 0;
}
