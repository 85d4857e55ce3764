#include "open_loop.h"

#include <algorithm>
#include <deque>
#include <future>
#include <thread>

namespace perfbench {

using youtopia::ClientInterface;
using youtopia::EntangledHandle;
using youtopia::QueryResult;
using youtopia::Result;
using youtopia::RunOutcome;
using youtopia::Status;

namespace {

/// One request awaiting its response; exactly one future is valid.
struct InFlight {
  int index = 0;
  std::future<Result<QueryResult>> query;
  std::future<Status> script;
  std::future<Result<RunOutcome>> run;

  bool ReadyBy(Clock::time_point until) const {
    if (query.valid()) return query.wait_until(until) == std::future_status::ready;
    if (script.valid()) return script.wait_until(until) == std::future_status::ready;
    return run.wait_until(until) == std::future_status::ready;
  }
};

void Harvest(const Dataset& data, const Phase& phase, InFlight* f,
             PhaseRun* run) {
  Outcome& out = run->outcomes[f->index];
  out.done_ns = NowNs();
  const Request& r = phase.requests[f->index];
  if (f->query.valid()) {
    Result<QueryResult> result = f->query.get();
    out.ok = result.ok();
    out.mismatch = result.ok() && !SearchMatches(data, r, result.value());
  } else if (f->script.valid()) {
    out.ok = f->script.get().ok();
  } else {
    Result<RunOutcome> result = f->run.get();
    out.ok = result.ok() && result->handle.has_value();
    if (out.ok) {
      out.closed_group = result->handle->Done();
      run->handles[f->index] = *result->handle;
    }
  }
}

void PaceConnection(const Dataset& data, const Phase& phase,
                    ClientInterface* client, int conn, int64_t drain_ns,
                    const SegmentHook& at_segment, PhaseRun* run) {
  std::deque<InFlight> inflight;
  size_t next_segment = 0;
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    if (conn == 0 && at_segment) {
      while (next_segment < phase.segments.size() &&
             phase.segments[next_segment].start_ns <= r.due_ns) {
        at_segment(next_segment++);
      }
    }
    if (r.conn != conn) continue;
    const Clock::time_point due = FromNs(run->start_ns + r.due_ns);
    while (!inflight.empty() && inflight.front().ReadyBy(due)) {
      Harvest(data, phase, &inflight.front(), run);
      inflight.pop_front();
    }
    if (inflight.empty()) std::this_thread::sleep_until(due);
    InFlight f;
    f.index = static_cast<int>(i);
    run->outcomes[i].sent_ns = NowNs();
    switch (r.kind) {
      case Kind::kFlightSearch:
      case Kind::kHotelSearch:
        f.query = client->ExecuteAsync(r.sql);
        break;
      case Kind::kBooking:
        f.script = client->ExecuteScriptAsync(r.sql);
        break;
      case Kind::kMember:
        f.run = client->RunAsync(r.sql);
        break;
    }
    inflight.push_back(std::move(f));
  }
  const int64_t last_due =
      phase.requests.empty() ? 0 : phase.requests.back().due_ns;
  const Clock::time_point deadline =
      FromNs(run->start_ns + last_due + drain_ns);
  while (!inflight.empty() && inflight.front().ReadyBy(deadline)) {
    Harvest(data, phase, &inflight.front(), run);
    inflight.pop_front();
  }
  if (conn == 0 && at_segment) {
    while (next_segment <= phase.segments.size()) at_segment(next_segment++);
  }
}

}  // namespace

bool SearchMatches(const Dataset& data, const Request& r,
                   const QueryResult& result) {
  int64_t sum = 0;
  for (const auto& row : result.rows) {
    if (row.values().empty() || row.values()[0].type() !=
                                    youtopia::DataType::kInt64) {
      return false;
    }
    sum += row.values()[0].int64_value();
  }
  if (r.kind == Kind::kFlightSearch) {
    return static_cast<int>(result.rows.size()) ==
               data.route_day_count[r.key] &&
           sum == data.route_day_fno_sum[r.key];
  }
  return static_cast<int>(result.rows.size()) == data.hotels_per_city &&
         sum == data.city_day_hid_sum[r.key];
}

PhaseRun RunWirePhase(const Dataset& data, const Phase& phase,
                      const std::vector<ClientInterface*>& clients,
                      int64_t start_ns, double drain_s,
                      const SegmentHook& at_segment) {
  PhaseRun run;
  run.phase = &phase;
  run.start_ns = start_ns;
  run.outcomes.resize(phase.requests.size());
  run.handles.resize(phase.requests.size());
  const int64_t drain_ns = static_cast<int64_t>(drain_s * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back(PaceConnection, std::cref(data), std::cref(phase),
                         clients[c], static_cast<int>(c), drain_ns,
                         std::cref(at_segment), &run);
  }
  for (auto& t : threads) t.join();
  return run;
}

void AwaitGroups(PhaseRun* run, int64_t deadline_ns) {
  for (size_t i = 0; i < run->handles.size(); ++i) {
    if (!run->handles[i].has_value()) continue;
    const EntangledHandle& h = *run->handles[i];
    const int64_t left_ms = (deadline_ns - NowNs()) / 1000000;
    (void)h.Wait(std::chrono::milliseconds(std::max<int64_t>(left_ms, 0)));
    Outcome& out = run->outcomes[i];
    const auto outcome = h.Outcome();
    const auto completed = h.CompletedAt();
    out.ok = outcome.has_value() && outcome->ok() && completed.has_value();
    out.done_ns = out.ok ? ToNs(*completed) : 0;
  }
}

PhaseStats Evaluate(const Options& o, const PhaseRun& run,
                    const Segment& segment) {
  const Phase& phase = *run.phase;
  PhaseStats s;
  auto scored = [&](int64_t at) {
    return at >= segment.score_from_ns && at < segment.end_ns;
  };
  const int64_t tail_from =
      segment.end_ns - (segment.end_ns - segment.score_from_ns) / 10;
  std::vector<double> tail;
  auto count = [&](int64_t at, double us) {
    if (at >= tail_from) tail.push_back(us);
  };
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    const Outcome& out = run.outcomes[i];
    if (!scored(phase.ScoreTimeNs(i))) continue;
    if (out.sent_ns != 0) {
      s.late_us.push_back(
          static_cast<double>(out.sent_ns - run.start_ns - r.due_ns) / 1e3);
    }
    if (out.mismatch) ++s.mismatches;
    if (r.kind == Kind::kMember) continue;  // scored per group below
    ++s.attempted;
    if (!out.ok || out.done_ns == 0 || out.mismatch) {
      ++s.failed;
      continue;
    }
    const double us =
        static_cast<double>(out.done_ns - run.start_ns - r.due_ns) / 1e3;
    const bool primary = o.workload == "browse" || r.kind == Kind::kBooking;
    (primary ? s.primary_us : s.browse_us).push_back(us);
    if (primary) count(r.due_ns, us);
  }
  for (const Group& g : phase.groups) {
    if (!scored(g.last_due_ns)) continue;
    ++s.attempted;
    int64_t last_done = 0;
    bool ok = true;
    for (int m : g.members) {
      const Outcome& out = run.outcomes[m];
      ok = ok && out.ok && out.done_ns != 0;
      last_done = std::max(last_done, out.done_ns);
    }
    if (!ok) {
      ++s.failed;
      continue;
    }
    const double us =
        static_cast<double>(last_done - run.start_ns - g.last_due_ns) / 1e3;
    s.primary_us.push_back(us);
    count(g.last_due_ns, us);
  }
  s.tail_median_us = Median(tail);
  return s;
}

bool PhaseStats::MeetsSlo(const Options& o) const {
  return Percentile(primary_us, 0.99) <= o.p99_limit_us &&
         fail_frac() <= o.max_fail_frac && tail_median_us <= o.p99_limit_us;
}

}  // namespace perfbench
