// perfbench_driver: one run of one workload against a real
// youtopia_server (end-to-end metrics) or, with --trace=1, the per-layer
// run. Prints a report, then the result as one JSON line; exits non-zero
// when an answer, durability or generator check fails.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/remote_client.h"
#include "open_loop.h"
#include "server_process.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace yt = youtopia;

/// Plan-cache capacity of the server's fixed configuration
/// (PlanCacheConfig default), for the size report.
constexpr size_t kPlanCacheCapacity = 256;

/// A server with the dataset loaded and the generator's connections.
struct Deployment {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<yt::net::RemoteClient>> clients;
  std::string data_dir;
  double setup_s = 0;
  double rss_before_load_mib = 0;
  double rss_after_load_mib = 0;

  std::vector<yt::ClientInterface*> interfaces() const {
    std::vector<yt::ClientInterface*> out;
    for (const auto& c : clients) out.push_back(c.get());
    return out;
  }
  void Stop() {
    clients.clear();
    if (server != nullptr) server->Kill();
  }
};

std::vector<std::unique_ptr<yt::net::RemoteClient>> Connect(
    const Options& o, uint16_t port) {
  std::vector<std::unique_ptr<yt::net::RemoteClient>> out;
  for (int c = 0; c < o.connections; ++c) {
    auto client = yt::net::RemoteClient::Connect(
        "127.0.0.1", port,
        yt::ClientOptions("perfbench" + std::to_string(c), false));
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   client.status().ToString().c_str());
      return {};
    }
    out.push_back(client.TakeValue());
  }
  return out;
}

/// Spawn → READY → schema and dataset loaded over the wire.
bool Deploy(const Options& o, const Dataset& data, const std::string& dir,
            Deployment* dep) {
  ResetDirectory(dir);
  dep->data_dir = dir;
  const int64_t t0 = NowNs();
  dep->server = ServerProcess::Start(o, dir);
  if (dep->server == nullptr) return false;
  dep->rss_before_load_mib = dep->server->MemoryMiB("VmRSS");
  dep->clients = Connect(o, dep->server->port());
  if (dep->clients.empty()) return false;
  if (!dep->clients[0]->ExecuteScript(data.SchemaScript()).ok()) {
    std::fprintf(stderr, "schema load failed\n");
    return false;
  }
  std::vector<std::future<yt::Result<yt::QueryResult>>> loads;
  const auto inserts = data.InsertStatements(o.rows_per_insert);
  for (size_t i = 0; i < inserts.size(); ++i) {
    loads.push_back(
        dep->clients[i % dep->clients.size()]->ExecuteAsync(inserts[i]));
  }
  for (auto& f : loads) {
    auto r = f.get();
    if (!r.ok()) {
      std::fprintf(stderr, "dataset load failed: %s\n",
                   r.status().ToString().c_str());
      return false;
    }
  }
  dep->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  dep->rss_after_load_mib = dep->server->MemoryMiB("VmRSS");
  return true;
}

/// The run's one continuous schedule: warm-up and the nominal window at
/// the nominal rate, then (end-to-end runs) the ladder's rate steps.
Phase MakeRunPhase(const Options& o, const Dataset& data, bool with_ladder) {
  std::vector<SegmentSpec> plan;
  plan.push_back({"warmup", o.rate, o.warmup_s, o.warmup_s});
  plan.push_back({"nominal", o.rate, o.seconds * o.nominal_share, 0});
  if (with_ladder) {
    const double step_s = o.seconds * (1 - o.nominal_share) /
                          static_cast<double>(o.ladder.size());
    for (size_t i = 0; i < o.ladder.size(); ++i) {
      plan.push_back({"step" + std::to_string(i), o.ladder[i], step_s,
                      step_s * o.settle_share});
    }
  }
  return MakePhase(o, data, plan, o.seed * 1000003ULL + 17);
}

/// Runs one phase over the wire and, for `coordinate`, waits for its
/// groups.
PhaseRun Drive(const Options& o, const Dataset& data, const Phase& phase,
               const Deployment& dep, const SegmentHook& at_segment = nullptr) {
  PhaseRun run = RunWirePhase(data, phase, dep.interfaces(),
                              NowNs() + 20 * 1000 * 1000, o.drain_s,
                              at_segment);
  if (!phase.groups.empty()) {
    const int64_t last_due =
        phase.requests.empty() ? 0 : phase.requests.back().due_ns;
    AwaitGroups(&run, run.start_ns + last_due +
                          static_cast<int64_t>(o.drain_s * 1e9));
  }
  return run;
}

std::map<std::string, int64_t> ReadPairs(yt::ClientInterface* client,
                                         const std::string& sql,
                                         bool* ok) {
  std::map<std::string, int64_t> out;
  auto result = client->Execute(sql);
  if (!result.ok()) {
    *ok = false;
    return out;
  }
  for (const auto& row : result->rows) {
    const auto& v = row.values();
    const std::string key = v[0].type() == yt::DataType::kString
                                ? v[0].string_value()
                                : std::to_string(v[0].int64_value());
    if (out.count(key) > 0) *ok = false;  // duplicate key
    out[key] = v[1].int64_value();
  }
  return out;
}

/// `book`: Reservation holds exactly the acked bookings and every
/// flight's seats equal its initial value minus its acked bookings.
/// Bookings that failed may have left their INSERT behind (a script is
/// not atomic); their travelers and flights are excused.
struct BookingLedger {
  std::map<std::string, int64_t> acked;  ///< traveler -> fno
  std::set<std::string> failed_travelers;
  std::set<int64_t> failed_fnos;
  std::map<int64_t, int> acked_per_fno;
};

BookingLedger Ledger(const Dataset& data, const PhaseRun& run) {
  BookingLedger l;
  for (size_t i = 0; i < run.phase->requests.size(); ++i) {
    const Request& r = run.phase->requests[i];
    if (r.kind != Kind::kBooking) continue;
    const int64_t fno = data.flights[r.key].fno;
    if (run.outcomes[i].ok) {
      l.acked[r.traveler] = fno;
      ++l.acked_per_fno[fno];
    } else {
      l.failed_travelers.insert(r.traveler);
      l.failed_fnos.insert(fno);
    }
  }
  return l;
}

/// Returns the number of violations. `exact`: Reservation holds nothing
/// but acked bookings and seats match the acked counts; otherwise (after
/// recovery) acked bookings must be among the rows and seats must match
/// the rows present.
size_t CheckBookings(yt::ClientInterface* client, const Dataset& data,
                     const BookingLedger& l, bool exact) {
  bool ok = true;
  const auto reservations =
      ReadPairs(client, "SELECT traveler, fno FROM Reservation", &ok);
  const auto seats = ReadPairs(client, "SELECT fno, seats FROM Flights", &ok);
  size_t bad = ok ? 0 : 1;
  for (const auto& [traveler, fno] : l.acked) {
    auto it = reservations.find(traveler);
    if (it == reservations.end() || it->second != fno) ++bad;
  }
  std::map<int64_t, int> present_per_fno;
  for (const auto& [traveler, fno] : reservations) {
    ++present_per_fno[fno];
    if (exact && l.acked.count(traveler) == 0 &&
        l.failed_travelers.count(traveler) == 0) {
      ++bad;
    }
  }
  const auto& booked_per_fno = exact ? l.acked_per_fno : present_per_fno;
  if (seats.size() != data.flights.size()) ++bad;
  for (const auto& [key, value] : seats) {
    const int64_t fno = std::stoll(key);
    if (l.failed_fnos.count(fno) > 0) continue;
    auto it = booked_per_fno.find(fno);
    const int booked = it == booked_per_fno.end() ? 0 : it->second;
    if (value != data.initial_seats - booked) ++bad;
  }
  return bad;
}

/// `coordinate`: every satisfied group shares one fno (and hid), within
/// its members' domains; the answer relations hold exactly one row per
/// satisfied member. A group still open at the deadline (overloaded
/// ladder steps) may close before the relations are read, so its
/// members' rows are allowed but not required.
size_t CheckGroups(yt::ClientInterface* client, const Dataset& data,
                   const PhaseRun& run) {
  size_t bad = 0;
  std::map<std::string, int64_t> want_fno, want_hid;
  std::set<std::string> open_members;
  for (const Group& g : run.phase->groups) {
    bool satisfied = true;
    for (int m : g.members) satisfied = satisfied && run.outcomes[m].ok;
    if (!satisfied) {
      for (int m : g.members) {
        open_members.insert(run.phase->requests[m].traveler);
      }
      continue;
    }
    int64_t fno = -1, hid = -1;
    for (int m : g.members) {
      const auto answers = run.handles[m]->Answers();
      const std::string& user = run.phase->requests[m].traveler;
      if (answers.size() != (g.hotel ? 2u : 1u) ||
          answers[0].values().size() != 2 ||
          answers[0].values()[0].string_value() != user) {
        ++bad;
        continue;
      }
      const int64_t f = answers[0].values()[1].int64_value();
      if (fno != -1 && f != fno) ++bad;
      fno = f;
      const size_t fi = static_cast<size_t>(f - Dataset::kFirstFno);
      if (fi >= data.flights.size() || data.flights[fi].dest != g.city ||
          data.flights[fi].day != g.day) {
        ++bad;
      }
      want_fno[user] = f;
      if (g.hotel) {
        const int64_t h = answers[1].values()[1].int64_value();
        if (hid != -1 && h != hid) ++bad;
        hid = h;
        if ((h - Dataset::kFirstHid) / data.hotels_per_city != g.city) ++bad;
        want_hid[user] = h;
      }
    }
  }
  bool ok = true;
  auto flights =
      ReadPairs(client, "SELECT traveler, fno FROM Reservation", &ok);
  auto hotels =
      ReadPairs(client, "SELECT traveler, hid FROM HotelReservation", &ok);
  for (const std::string& user : open_members) {
    flights.erase(user);
    hotels.erase(user);
  }
  if (!ok || flights != want_fno || hotels != want_hid) ++bad;
  return bad;
}

void PrintSizes(const Options& o, const Dataset& data, const Phase& p) {
  std::printf("dataset: %zu rows (Flights %zu, Hotels %zu), %d cities x %d "
              "days\n",
              data.rows(), data.flights.size(), data.hotel_rows, o.cities,
              o.days);
  std::printf("server: shards=%d workers=%d admission=%d wal=group-commit "
              "fsync=on, fresh data dir; client: %d connections, %d "
              "threads\n",
              o.shards, o.workers, o.admission, o.connections, o.connections);
  std::printf("load: %s at %g/s (open loop, Poisson), p99 limit %.0f us, "
              "ladder",
              o.workload.c_str(), o.rate, o.p99_limit_us);
  for (double r : o.ladder) std::printf(" %g", r);
  std::printf("\n");
  if (o.workload != "coordinate") {
    std::printf("search texts in nominal window: %zu distinct (plan cache "
                "holds %zu; book draws from a hot set of %d)\n",
                DistinctTexts(p, p.segments[1]), kPlanCacheCapacity,
                o.hot_texts);
  }
}

/// Members that needed a completion push: registered pending and
/// completed by the deadline (`completed`), or registered and still
/// open then, whose push may land later (`open`).
struct PushCount {
  double completed = 0;
  double open = 0;
};
PushCount PushedMembers(const PhaseRun& run) {
  PushCount n;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    if (run.phase->requests[i].kind != Kind::kMember ||
        !run.handles[i].has_value() || run.outcomes[i].closed_group) {
      continue;
    }
    (run.outcomes[i].ok ? n.completed : n.open) += 1;
  }
  return n;
}

/// Answer checks common to both modes; returns violations. `before` and
/// `after` are scrapes taken around the whole phase.
size_t CheckAnswers(const Options& o, const Dataset& data,
                    const Deployment& dep, const PhaseRun& run,
                    const MetricsScrape& before, const MetricsScrape& after) {
  size_t bad = 0;
  for (const Outcome& out : run.outcomes) bad += out.mismatch ? 1 : 0;
  if (o.workload == "book") {
    bad += CheckBookings(dep.clients[0].get(), data, Ledger(data, run), true);
  }
  if (o.workload == "coordinate") {
    bad += CheckGroups(dep.clients[0].get(), data, run);
    // Each member left pending at registration gets exactly one push.
    const double pushes = Delta(before, after, "youtopia_server_pushes_total");
    const PushCount want = PushedMembers(run);
    if (pushes < want.completed || pushes > want.completed + want.open) {
      ++bad;
    }
  }
  return bad;
}

int RunEndToEnd(const Options& o, const Dataset& data) {
  const Phase phase = MakeRunPhase(o, data, true);
  PrintSizes(o, data, phase);
  std::vector<double> setups;
  Deployment dep;
  for (int k = 0; k < o.setup_repeats; ++k) {
    Deployment d;
    if (!Deploy(o, data, o.work_dir + "/setup" + std::to_string(k), &d)) {
      return 1;
    }
    setups.push_back(d.setup_s);
    if (k + 1 < o.setup_repeats) {
      d.Stop();
      ResetDirectory(d.data_dir);
    } else {
      dep = std::move(d);
    }
  }
  const MetricsScrape before = ScrapeMetrics(dep.server->metrics_port());
  // Server CPU at each segment boundary: the nominal window's CPU cost.
  std::vector<double> cpu_at(phase.segments.size() + 1, 0);
  const PhaseRun run =
      Drive(o, data, phase, dep, [&](size_t segment) {
        cpu_at[segment] = dep.server->CpuSeconds();
      });
  const MetricsScrape after = ScrapeMetrics(dep.server->metrics_port());
  const PhaseStats nominal = Evaluate(o, run, phase.segments[1]);
  const double cpu_us_per_op =
      (cpu_at[2] - cpu_at[1]) * 1e6 /
      static_cast<double>(std::max<size_t>(nominal.attempted, 1));
  bool passing = nominal.MeetsSlo(o);
  double max_rps = passing ? o.rate : 0;
  for (size_t i = 1; i < phase.segments.size(); ++i) {
    const Segment& seg = phase.segments[i];
    const PhaseStats s = Evaluate(o, run, seg);
    passing = passing && s.MeetsSlo(o);
    if (passing) max_rps = seg.rate;
    std::printf("ladder: %-8s %7g/s p99=%.0fus tail_p50=%.0fus fail=%.4f "
                "n=%zu %s\n",
                seg.name.c_str(), seg.rate, Percentile(s.primary_us, 0.99),
                s.tail_median_us, s.fail_frac(), s.attempted,
                s.MeetsSlo(o) ? "pass" : "FAIL");
  }
  const size_t bad = CheckAnswers(o, data, dep, run, before, after);
  const double rss_mb = dep.server->MemoryMiB("VmHWM");

  // Crash and recover on the same data dir.
  const BookingLedger ledger = Ledger(data, run);
  dep.Stop();
  std::vector<double> recoveries;
  size_t durability_bad = 0;
  for (int r = 0; r < o.recovery_repeats; ++r) {
    auto server = ServerProcess::Start(o, dep.data_dir);
    if (server == nullptr) return 1;
    recoveries.push_back(server->ready_seconds());
    if (r == 0 && o.workload == "book") {
      auto clients = Connect(o, server->port());
      durability_bad = clients.empty()
                           ? 1
                           : CheckBookings(clients[0].get(), data, ledger,
                                           false);
    }
    server->Kill();
  }

  const LatencySummary primary = Summarize(nominal.primary_us);
  const double late_p99 = Percentile(nominal.late_us, 0.99);
  std::printf("end-to-end (%s, nominal window):\n", o.workload.c_str());
  Report("setup_s", Median(setups), "s", setups.size());
  if (o.workload == "browse") {
    Report("browse_p50_us", primary.p50_us, "us", primary.n);
    Report("browse_p99_us", primary.p99_us, "us", primary.n);
  } else if (o.workload == "book") {
    const LatencySummary browse = Summarize(nominal.browse_us);
    Report("browse_p50_us", browse.p50_us, "us", browse.n);
    Report("browse_p99_us", browse.p99_us, "us", browse.n);
    Report("book_p50_us", primary.p50_us, "us", primary.n);
    Report("book_p99_us", primary.p99_us, "us", primary.n);
  } else {
    Report("coord_p50_us", primary.p50_us, "us", primary.n);
    Report("coord_p99_us", primary.p99_us, "us", primary.n);
  }
  Report("max_rps_at_slo", max_rps,
         o.workload == "coordinate" ? "groups/s" : "1/s",
         phase.segments.size() - 1);
  Report("fail_frac", nominal.fail_frac(), "fraction", nominal.attempted);
  Report("server_rss_mb", rss_mb, "MiB", 1);
  Report("cpu_us_per_op", cpu_us_per_op, "us", nominal.attempted);
  Report("recovery_s", Median(recoveries), "s", recoveries.size());
  Report("gen_late_p99_us", late_p99, "us", nominal.late_us.size());
  if (o.workload == "book") {
    std::printf("durability: %zu acked bookings checked after SIGKILL + "
                "restart: %s (covers a process crash only: the OS page "
                "cache survives the kill)\n",
                ledger.acked.size(), durability_bad == 0 ? "ok" : "FAILED");
  }
  const bool late_ok = late_p99 <= o.late_p99_bound_us;
  const bool fail_ok = nominal.fail_frac() <= o.max_fail_frac;
  std::printf("checks: answers %s, durability %s, generator %s, fail_frac "
              "%s\n",
              bad == 0 ? "ok" : "FAILED", durability_bad == 0 ? "ok" : "FAILED",
              late_ok ? "ok" : "FAILED (late p99 over bound)",
              fail_ok ? "ok" : "FAILED");
  const bool correct = bad == 0 && durability_bad == 0 && late_ok && fail_ok;

  // The gated subset: the figures that hold steady run to run on a
  // shared VM whose CPU speed drifts by tens of percent within minutes.
  // Every CPU-bound figure (latency, CPU per op, capacity, recovery) is
  // reported above for paired comparisons instead.
  MetricMap m;
  m["setup_s"] = {Median(setups), "s"};
  m["server_rss_mb"] = {rss_mb, "MiB"};
  PrintResult(correct, nominal.attempted, nominal.failed, m);
  return correct ? 0 : 1;
}

int RunLayers(const Options& o, const Dataset& data) {
  const Phase phase = MakeRunPhase(o, data, false);
  const Segment& measured = phase.segments[1];
  PrintSizes(o, data, phase);
  Deployment dep;
  if (!Deploy(o, data, o.work_dir + "/wire", &dep)) return 1;
  const MetricsScrape before = ScrapeMetrics(dep.server->metrics_port());
  const double rss_before = dep.server->MemoryMiB("VmRSS");
  const PhaseRun run = Drive(o, data, phase, dep);
  const MetricsScrape after = ScrapeMetrics(dep.server->metrics_port());
  const double rss_after = dep.server->MemoryMiB("VmRSS");
  const PhaseStats wire = Evaluate(o, run, measured);
  size_t bad = CheckAnswers(o, data, dep, run, before, after);
  const double disk = static_cast<double>(DirectoryBytes(dep.data_dir));
  const double user_bytes =
      static_cast<double>(data.user_bytes + phase.user_bytes);
  dep.Stop();

  const TracedResult off = RunTraced(o, data, phase, measured, false,
                                     o.work_dir + "/traced_off", "");
  const std::string spans_path = o.work_dir + "/spans_" + o.workload + "_" +
                                 std::to_string(o.seed) + ".tsv";
  const TracedResult on = RunTraced(o, data, phase, measured, true,
                                    o.work_dir + "/traced_on", spans_path);
  bad += off.mismatches + on.mismatches;

  // Counters of the real server's pool come from its metrics page,
  // taken around the whole phase (warm-up runs at the nominal rate).
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  MetricMap m = on.layers;
  const double off_median = Median(off.primary_us);
  const double on_median = Median(on.primary_us);
  m["net.wire_overhead_us"] = {Median(wire.primary_us) - off_median, "us"};
  m["net.pushes_per_member"] = {
      ratio(Delta(before, after, "youtopia_server_pushes_total"),
            PushedMembers(run).completed),
      "ratio"};
  m["service.lock_requeues_per_op"] = {
      ratio(Delta(before, after, "youtopia_executor_lock_requeues_total"),
            Delta(before, after, "youtopia_executor_executed_total")),
      "ratio"};
  m["service.shed_frac"] = {
      ratio(Delta(before, after, "youtopia_executor_shed_total"),
            Delta(before, after, "youtopia_executor_submitted_total")),
      "fraction"};
  m["storage.bytes_per_row"] = {
      (dep.rss_after_load_mib - dep.rss_before_load_mib) * 1048576.0 /
          static_cast<double>(data.rows()),
      "bytes"};
  m["storage.rss_growth_mb"] = {rss_after - rss_before, "MiB"};
  m["wal.disk_bytes_per_user_byte"] = {ratio(disk, user_bytes), "ratio"};
  m["trace.overhead_frac"] = {ratio(on_median - off_median, off_median),
                              "fraction"};

  std::printf("per-layer (%s): wire median %.1fus, in-process median %.1fus "
              "(spans off) / %.1fus (spans on), %zu spans\n",
              o.workload.c_str(), Median(wire.primary_us), off_median,
              on_median, on.spans);
  for (const auto& [name, metric] : m) {
    Report(name, metric.value, metric.unit, on.primary_us.size());
  }
  auto fail_frac = [](size_t failed, size_t attempted) {
    return attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
  };
  const bool correct =
      bad == 0 && off.ok && on.ok && wire.fail_frac() <= o.max_fail_frac &&
      fail_frac(on.failed, on.attempted) <= o.max_fail_frac &&
      fail_frac(off.failed, off.attempted) <= o.max_fail_frac;
  std::printf("checks: answers %s\n", bad == 0 ? "ok" : "FAILED");
  PrintResult(correct, wire.attempted + on.attempted + off.attempted,
              wire.failed + on.failed + off.failed, m);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  const Options o = ParseOptions(argc, argv);
  if (o.workload != "browse" && o.workload != "book" &&
      o.workload != "coordinate") {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  // One generator thread per connection: never more than the cores.
  if (o.connections > static_cast<int>(std::thread::hardware_concurrency())) {
    std::fprintf(stderr, "generator check: %d connections > %u cores\n",
                 o.connections, std::thread::hardware_concurrency());
    return 1;
  }
  const Dataset data = MakeDataset(o);
  ResetDirectory(o.work_dir);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  return o.trace ? RunLayers(o, data) : RunEndToEnd(o, data);
}
