#include "traced.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/backoff.h"
#include "net/protocol.h"
#include "open_loop.h"
#include "server/youtopia.h"
#include "service/executor_service.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

namespace yt = youtopia;

enum SpanName : uint8_t {
  kRequest,
  kCodec,
  kServiceSubmit,
  kServiceQueue,
  kPrepare,
  kParse,
  kExecRead,
  kTxnWrite,
  kCoordSubmit,
  kCoordCallback,
  kNumSpanNames,
};
const char* const kSpanNames[kNumSpanNames] = {
    "request",   "net.codec", "service.submit", "service.queue",
    "plan_cache.prepare", "sql.parse", "exec.read", "txn.write",
    "coord.submit", "coord.callback"};

constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint32_t parent = kNoSpan;
  uint32_t request = 0;
  uint8_t name = 0;
  /// txn.write / exec.read: the attempt lost a lock conflict.
  /// coord.submit: this submission closed its group.
  uint8_t flag = 0;
};

/// In-memory span store of fixed capacity. A span claims its slot with
/// one fetch_add, so recording takes no lock; with tracing off every
/// call is a no-op.
class Tracer {
 public:
  Tracer(bool on, size_t capacity) : on_(on), spans_(on ? capacity : 0) {}

  uint32_t Record(uint8_t name, uint32_t parent, uint32_t request,
                  int64_t start, int64_t end, uint8_t flag = 0) {
    if (!on_) return kNoSpan;
    const size_t id = next_.fetch_add(1, std::memory_order_relaxed);
    if (id >= spans_.size()) return kNoSpan;
    spans_[id] = Span{start, end, parent, request, name, flag};
    return static_cast<uint32_t>(id);
  }
  /// Closes a span recorded with end = 0.
  void SetEnd(uint32_t id, int64_t end) {
    if (id != kNoSpan) spans_[id].end = end;
  }
  size_t size() const { return std::min(next_.load(), spans_.size()); }
  const Span& at(size_t i) const { return spans_[i]; }

 private:
  const bool on_;
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
};

/// Frame round trip through the wire codec: what a server reader and a
/// client reader would do to `msg`.
template <typename Message>
void CodecRoundTrip(const Message& msg) {
  const std::string frame = yt::net::EncodeFrame(msg);
  auto decoded = yt::net::DecodePayload<Message>(
      std::string_view(frame).substr(yt::net::kFrameHeaderBytes + 1));
  (void)decoded;
}

/// Execution state of one request, shared by its carrier tasks.
struct Live {
  int index = 0;
  /// The span store, or a no-op one for requests outside the measured
  /// segment.
  Tracer* tracer = nullptr;
  uint32_t root = kNoSpan;
  uint32_t submit_span = kNoSpan;
  int64_t first_submit_ns = 0;
  int64_t submit_ns = 0;
  size_t conflicts = 0;
  // Booking scripts: progress survives a conflict requeue.
  std::vector<yt::Parser::ScriptPart> parts;
  bool parsed = false;
  size_t step = 0;
  yt::PreparedStatementPtr step_prepared;
};

/// One phase driven through the engine. Declared before the engine in
/// RunTraced, so completion callbacks fired while the engine shuts down
/// still find it alive.
class TracedPhase {
 public:
  /// Requests arriving in `measured` are traced into `tracer`; when the
  /// generator reaches the segment's scored part it calls `at_measure`.
  TracedPhase(const Options& o, const Dataset& data, const Phase& phase,
              const Segment& measured, Tracer* tracer, yt::Youtopia* db,
              const std::vector<uint64_t>& sessions,
              std::function<void()> at_measure)
      : o_(o), data_(data), phase_(phase), measured_(measured),
        tracer_(tracer), db_(db), sessions_(sessions),
        at_measure_(std::move(at_measure)) {
    run_.phase = &phase;
    run_.outcomes.resize(phase.requests.size());
    run_.handles.resize(phase.requests.size());
    outstanding_ = phase.requests.size();
    for (int c = 0; c < o.connections; ++c) {
      delayed_.push_back(std::make_unique<Delayed>());
    }
  }

  /// Paces every request, then waits for registrations and (coordinate)
  /// group completions until `drain_s` past the last scheduled send.
  void Drive(int64_t start_ns, double drain_s) {
    run_.start_ns = start_ns;
    const int64_t last_due =
        phase_.requests.empty() ? 0 : phase_.requests.back().due_ns;
    const int64_t deadline =
        start_ns + last_due + static_cast<int64_t>(drain_s * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < o_.connections; ++c) {
      threads.emplace_back([this, c, deadline] { Pace(c, deadline); });
    }
    for (auto& t : threads) t.join();
    AwaitGroups(&run_, deadline);
  }

  const PhaseRun& run() const { return run_; }
  std::vector<double> pending_samples() const { return pending_samples_; }
  int64_t worker_ns() const { return worker_ns_.load(); }

 private:
  /// Conflict requeues of one connection's requests, due at their
  /// backoff wake times — the pool's own delayed queue, replayed by the
  /// connection's generator thread so no worker sleeps.
  struct Delayed {
    std::mutex mu;
    std::condition_variable cv;
    std::multimap<int64_t, std::shared_ptr<Live>> wake;
  };

  /// Resubmits due requeues until `until`, or until every request is
  /// done when `drain` is set.
  void ServeDelayed(int conn, int64_t until, bool drain) {
    Delayed& d = *delayed_[conn];
    std::unique_lock<std::mutex> lock(d.mu);
    while (true) {
      const int64_t now = NowNs();
      while (!d.wake.empty() && d.wake.begin()->first <= now) {
        auto live = std::move(d.wake.begin()->second);
        d.wake.erase(d.wake.begin());
        lock.unlock();
        Submit(live);
        lock.lock();
      }
      if (now >= until || (drain && outstanding_.load() == 0)) return;
      const int64_t next =
          d.wake.empty() ? until : std::min(until, d.wake.begin()->first);
      d.cv.wait_until(lock, FromNs(next));
    }
  }

  void Pace(int conn, int64_t deadline) {
    const int64_t measure_from = run_.start_ns + measured_.score_from_ns;
    const int64_t measure_to = run_.start_ns + measured_.end_ns;
    int64_t next_sample = measure_from;
    for (size_t i = 0; i < phase_.requests.size(); ++i) {
      const Request& r = phase_.requests[i];
      if (r.conn != conn) continue;
      const int64_t due = run_.start_ns + r.due_ns;
      ServeDelayed(conn, due, false);
      const int64_t now = NowNs();
      if (conn == 0 && now >= next_sample && now < measure_to) {
        if (next_sample == measure_from && at_measure_) at_measure_();
        pending_samples_.push_back(
            static_cast<double>(db_->coordinator().pending_count()));
        next_sample = now + 200 * 1000 * 1000;
      }
      run_.outcomes[i].sent_ns = now;
      auto live = std::make_shared<Live>();
      live->index = static_cast<int>(i);
      const int64_t at = phase_.ScoreTimeNs(i);
      live->tracer = at >= measured_.score_from_ns && at < measured_.end_ns
                         ? tracer_
                         : &off_;
      Tracer* tracer = live->tracer;
      live->root = tracer->Record(kRequest, kNoSpan, live->index, due, 0);
      const int64_t c0 = NowNs();
      EncodeRequest(r, i);
      tracer->Record(kCodec, live->root, live->index, c0, NowNs());
      live->first_submit_ns = NowNs();
      live->submit_span = tracer->Record(kServiceSubmit, live->root,
                                         live->index, live->first_submit_ns,
                                         0);
      Submit(live);
    }
    ServeDelayed(conn, deadline, true);
  }

  void EncodeRequest(const Request& r, size_t i) {
    switch (r.kind) {
      case Kind::kFlightSearch:
      case Kind::kHotelSearch: {
        yt::net::ExecuteRequest m;
        m.request_id = i;
        m.sql = r.sql;
        CodecRoundTrip(m);
        break;
      }
      case Kind::kBooking: {
        yt::net::ScriptRequest m;
        m.request_id = i;
        m.sql = r.sql;
        CodecRoundTrip(m);
        break;
      }
      case Kind::kMember: {
        yt::net::RunRequest m;
        m.request_id = i;
        m.owner = r.traveler;
        m.sql = r.sql;
        CodecRoundTrip(m);
        break;
      }
    }
  }

  /// Queues a carrier task on the request's session. The carrier is an
  /// empty script; its continuation runs the request's stages on the
  /// worker that dequeued it, so the span from Submit to the
  /// continuation is the time the request waited for the pool.
  void Submit(const std::shared_ptr<Live>& live) {
    live->submit_ns = NowNs();
    yt::StatementTask task;
    task.kind = yt::StatementTask::Kind::kScript;
    task.session = sessions_[phase_.requests[live->index].conn];
    task.on_done = [this, live](yt::Result<yt::RunOutcome>) { Stage(live); };
    if (!db_->executor_service().Submit(std::move(task)).ok()) {
      Finish(live, false, false);
    }
  }

  void Stage(const std::shared_ptr<Live>& live) {
    const int64_t entry = NowNs();
    Tracer* const tracer = live->tracer;
    const uint32_t parent = live->submit_span;
    const uint32_t idx = static_cast<uint32_t>(live->index);
    tracer->Record(kServiceQueue, parent, idx, live->submit_ns, entry);
    const Request& r = phase_.requests[live->index];
    switch (r.kind) {
      case Kind::kFlightSearch:
      case Kind::kHotelSearch: {
        const int64_t t0 = NowNs();
        auto prepared = db_->Prepare(r.sql);
        const int64_t t1 = NowNs();
        tracer->Record(kPrepare, parent, idx, t0, t1);
        if (!prepared.ok()) return Done(live, entry, false, false);
        bool conflict = false;
        auto result =
            db_->ExecutePrepared(**prepared, yt::LockWait::kTry, &conflict);
        tracer->Record(kExecRead, parent, idx, t1, NowNs(), conflict);
        if (conflict) return Requeue(live, entry);
        const bool ok = result.ok();
        const bool mismatch = ok && !SearchMatches(data_, r, result.value());
        yt::net::ExecuteResponse resp;
        resp.request_id = idx;
        resp.status = result.status();
        if (ok) resp.result = result.TakeValue();
        const int64_t c0 = NowNs();
        CodecRoundTrip(resp);
        tracer->Record(kCodec, parent, idx, c0, NowNs());
        return Done(live, entry, ok, mismatch);
      }
      case Kind::kBooking: {
        if (!live->parsed) {
          const int64_t t0 = NowNs();
          auto parts = yt::Parser::ParseScriptParts(r.sql);
          tracer->Record(kParse, parent, idx, t0, NowNs());
          if (!parts.ok()) return Done(live, entry, false, false);
          live->parts = parts.TakeValue();
          live->parsed = true;
        }
        while (live->step < live->parts.size()) {
          if (live->step_prepared == nullptr) {
            auto& part = live->parts[live->step];
            const int64_t t0 = NowNs();
            auto prepared = db_->PrepareParsedCached(std::move(part.stmt),
                                                     part.text);
            tracer->Record(kPrepare, parent, idx, t0, NowNs());
            if (!prepared.ok()) return Done(live, entry, false, false);
            live->step_prepared = prepared.TakeValue();
          }
          bool conflict = false;
          const int64_t t0 = NowNs();
          auto result = db_->ExecutePrepared(*live->step_prepared,
                                             yt::LockWait::kTry, &conflict);
          tracer->Record(kTxnWrite, parent, idx, t0, NowNs(), conflict);
          if (conflict) return Requeue(live, entry);
          if (!result.ok()) return Done(live, entry, false, false);
          live->step_prepared.reset();
          ++live->step;
        }
        yt::net::ScriptResponse resp;
        resp.request_id = idx;
        const int64_t c0 = NowNs();
        CodecRoundTrip(resp);
        tracer->Record(kCodec, parent, idx, c0, NowNs());
        return Done(live, entry, true, false);
      }
      case Kind::kMember: {
        const int64_t t0 = NowNs();
        auto prepared = db_->Prepare(r.sql);
        const int64_t t1 = NowNs();
        tracer->Record(kPrepare, parent, idx, t0, t1);
        if (!prepared.ok()) return Done(live, entry, false, false);
        auto handle = db_->SubmitPrepared(**prepared, r.traveler);
        const bool closed = handle.ok() && handle->Done();
        tracer->Record(kCoordSubmit, parent, idx, t1, NowNs(), closed);
        if (!handle.ok()) return Done(live, entry, false, false);
        run_.handles[idx] = *handle;
        run_.outcomes[idx].closed_group = closed;
        // Usually fires after the request span closed: a span of its own,
        // tied to the request by id rather than nested in it.
        handle->OnComplete([tracer, idx](const yt::EntangledHandle& h) {
          const auto completed = h.CompletedAt();
          if (completed.has_value()) {
            tracer->Record(kCoordCallback, kNoSpan, idx, ToNs(*completed),
                           NowNs());
          }
        });
        yt::net::RunResponse resp;
        resp.request_id = idx;
        resp.entangled = true;
        resp.handle.query_id = handle->id();
        resp.handle.done = closed;
        if (closed) resp.handle.answers = handle->Answers();
        const int64_t c0 = NowNs();
        CodecRoundTrip(resp);
        tracer->Record(kCodec, parent, idx, c0, NowNs());
        return Done(live, entry, true, false);
      }
    }
  }

  /// Lost a lock conflict before executing anything: back into the
  /// session queue after the pool's backoff (StatementTask defaults).
  void Requeue(const std::shared_ptr<Live>& live, int64_t entry) {
    const int64_t now = NowNs();
    worker_ns_ += now - entry;
    const auto pause = yt::ExponentialBackoff(
        std::chrono::milliseconds(1), std::chrono::milliseconds(64),
        live->conflicts++);
    Delayed& d = *delayed_[phase_.requests[live->index].conn];
    std::lock_guard<std::mutex> lock(d.mu);
    d.wake.emplace(
        now + std::chrono::duration_cast<std::chrono::nanoseconds>(pause)
                  .count(),
        live);
    d.cv.notify_all();
  }

  void Done(const std::shared_ptr<Live>& live, int64_t entry, bool ok,
            bool mismatch) {
    worker_ns_ += NowNs() - entry;
    Finish(live, ok, mismatch);
  }

  void Finish(const std::shared_ptr<Live>& live, bool ok, bool mismatch) {
    const int64_t now = NowNs();
    Outcome& out = run_.outcomes[live->index];
    out.ok = ok;
    out.mismatch = mismatch;
    out.done_ns = now;
    live->tracer->SetEnd(live->submit_span, now);
    live->tracer->SetEnd(live->root, now);
    if (--outstanding_ == 0) {
      for (auto& d : delayed_) {
        std::lock_guard<std::mutex> lock(d->mu);
        d->cv.notify_all();
      }
    }
  }

  const Options& o_;
  const Dataset& data_;
  const Phase& phase_;
  const Segment& measured_;
  Tracer* tracer_;
  Tracer off_{false, 0};
  yt::Youtopia* db_;
  const std::vector<uint64_t>& sessions_;
  const std::function<void()> at_measure_;
  PhaseRun run_;
  std::vector<double> pending_samples_;  ///< Written by the conn-0 thread.
  std::atomic<int64_t> worker_ns_{0};
  std::vector<std::unique_ptr<Delayed>> delayed_;
  std::atomic<size_t> outstanding_{0};
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Parser time per statement over (a sample of) the phase's texts.
double ParseMicrosPerStatement(const Phase& phase) {
  const size_t stride = std::max<size_t>(1, phase.requests.size() / 2000);
  int64_t total_ns = 0;
  size_t statements = 0;
  for (size_t i = 0; i < phase.requests.size(); i += stride) {
    const int64_t t0 = NowNs();
    auto parts = yt::Parser::ParseScriptParts(phase.requests[i].sql);
    total_ns += NowNs() - t0;
    if (parts.ok()) statements += parts->size();
  }
  return Ratio(static_cast<double>(total_ns) / 1e3,
               static_cast<double>(statements));
}

/// Writes the spans (times relative to `origin_ns`, in us) and prints
/// each span name's count, mean duration and mean self time — its
/// duration minus the part its child spans cover.
void WriteSpans(const Tracer& tracer, int64_t origin_ns,
                const std::string& path) {
  std::vector<int64_t> child_ns(tracer.size(), 0);
  for (size_t i = 0; i < tracer.size(); ++i) {
    const Span& s = tracer.at(i);
    if (s.parent != kNoSpan && s.end > 0) child_ns[s.parent] += s.end - s.start;
  }
  std::vector<double> total(kNumSpanNames, 0), self(kNumSpanNames, 0);
  std::vector<size_t> count(kNumSpanNames, 0);
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_us\tend_us\tflag\n";
  for (size_t i = 0; i < tracer.size(); ++i) {
    const Span& s = tracer.at(i);
    if (s.end == 0) continue;
    const double dur = static_cast<double>(s.end - s.start) / 1e3;
    total[s.name] += dur;
    self[s.name] += dur - static_cast<double>(child_ns[i]) / 1e3;
    ++count[s.name];
    char line[160];
    std::snprintf(line, sizeof(line), "%zu\t%d\t%u\t%s\t%.3f\t%.3f\t%u\n", i,
                  s.parent == kNoSpan ? -1 : static_cast<int>(s.parent),
                  s.request, kSpanNames[s.name],
                  static_cast<double>(s.start - origin_ns) / 1e3,
                  static_cast<double>(s.end - origin_ns) / 1e3, s.flag);
    out << line;
  }
  std::printf("  span self time (%zu spans -> %s):\n", tracer.size(),
              path.c_str());
  for (int n = 0; n < kNumSpanNames; ++n) {
    if (count[n] == 0) continue;
    std::printf("    %-20s n=%-8zu mean=%10.2fus self=%10.2fus\n",
                kSpanNames[n], count[n], total[n] / count[n],
                self[n] / count[n]);
  }
}

/// Total duration (us) and count of the spans named `name` whose flag
/// matches (`flag` < 0: any).
struct SpanSum {
  double total_us = 0;
  size_t n = 0;
  double mean_us() const { return n == 0 ? 0.0 : total_us / n; }
};
SpanSum Sum(const Tracer& tracer, uint8_t name, int flag = -1) {
  SpanSum sum;
  for (size_t i = 0; i < tracer.size(); ++i) {
    const Span& s = tracer.at(i);
    if (s.name != name || s.end == 0) continue;
    if (flag >= 0 && s.flag != flag) continue;
    sum.total_us += static_cast<double>(s.end - s.start) / 1e3;
    ++sum.n;
  }
  return sum;
}

}  // namespace

TracedResult RunTraced(const Options& o, const Dataset& data,
                       const Phase& phase, const Segment& measured,
                       bool spans_on, const std::string& data_dir,
                       const std::string& spans_path) {
  TracedResult result;
  Tracer tracer(spans_on, phase.requests.size() * 12 + 1024);
  std::vector<uint64_t> sessions;
  for (int c = 0; c < o.connections; ++c) {
    sessions.push_back(yt::ExecutorService::AllocateSessionId());
  }
  yt::CoordinatorStats coord0;
  yt::PlanCache::Stats cache0;
  yt::ExecutorService::Stats exec0;
  yt::wal::WalStats wal0;
  int64_t measure_start = 0;
  std::unique_ptr<TracedPhase> traced;

  yt::YoutopiaConfig config;
  config.coordinator.num_shards = static_cast<size_t>(o.shards);
  config.executor.num_workers = static_cast<size_t>(o.workers);
  config.executor.admission_high_water = static_cast<size_t>(o.admission);
  config.wal.enabled = true;
  config.wal.dir = data_dir;
  yt::Youtopia db(config);
  if (!db.recovery_status().ok() ||
      !db.ExecuteScript(data.SchemaScript()).ok()) {
    std::fprintf(stderr, "traced run: engine setup failed\n");
    return result;
  }
  for (const std::string& insert : data.InsertStatements(o.rows_per_insert)) {
    if (!db.Execute(insert).ok()) {
      std::fprintf(stderr, "traced run: dataset load failed\n");
      return result;
    }
  }

  traced = std::make_unique<TracedPhase>(
      o, data, phase, measured, &tracer, &db, sessions, [&] {
        coord0 = db.coordinator().stats();
        cache0 = db.plan_cache().stats();
        exec0 = db.executor_service().stats();
        wal0 = db.wal()->stats();
        measure_start = NowNs();
      });
  const int64_t start = NowNs() + 20 * 1000 * 1000;
  traced->Drive(start, o.drain_s);
  const int64_t wall_ns = NowNs() - measure_start;
  const auto coord1 = db.coordinator().stats();
  const auto cache1 = db.plan_cache().stats();
  const auto exec1 = db.executor_service().stats();
  const auto wal1 = db.wal()->stats();
  TracedPhase* const main_phase = traced.get();

  const PhaseStats stats = Evaluate(o, main_phase->run(), measured);
  result.ok = true;
  result.attempted = stats.attempted;
  result.failed = stats.failed;
  result.mismatches = stats.mismatches;
  result.primary_us = stats.primary_us;
  result.late_us = stats.late_us;
  result.spans = tracer.size();
  if (!spans_on) return result;

  WriteSpans(tracer, start, spans_path);
  const double requests = static_cast<double>(Sum(tracer, kRequest).n);
  auto d = [](size_t after, size_t before) {
    return static_cast<double>(after - before);
  };
  MetricMap& m = result.layers;
  m["net.codec_us"] = {Ratio(Sum(tracer, kCodec).total_us, requests), "us"};
  m["service.queue_wait_us"] = {
      Ratio(Sum(tracer, kServiceQueue).total_us, requests), "us"};
  const double busy_ns =
      static_cast<double>(exec1.busy_micros - exec0.busy_micros) * 1e3 +
      static_cast<double>(main_phase->worker_ns());
  m["service.busy_frac"] = {
      Ratio(busy_ns, static_cast<double>(wall_ns) * o.workers), "fraction"};
  m["sql.parse_us"] = {ParseMicrosPerStatement(phase), "us"};
  m["plan_cache.hit_rate"] = {
      Ratio(d(cache1.hits, cache0.hits),
            d(cache1.hits, cache0.hits) + d(cache1.misses, cache0.misses)),
      "fraction"};
  m["plan_cache.prepare_us"] = {Sum(tracer, kPrepare).mean_us(), "us"};
  m["exec.read_us"] = {Sum(tracer, kExecRead).mean_us(), "us"};
  // Per DML statement executed, lost attempts included.
  const SpanSum writes = Sum(tracer, kTxnWrite);
  const SpanSum conflicts = Sum(tracer, kTxnWrite, 1);
  m["txn.write_us"] = {
      Ratio(writes.total_us, static_cast<double>(writes.n - conflicts.n)),
      "us"};
  m["txn.lock_conflict_frac"] = {
      Ratio(static_cast<double>(conflicts.n), static_cast<double>(writes.n)),
      "fraction"};
  const double records = d(wal1.records_appended, wal0.records_appended);
  m["wal.bytes_per_commit"] = {
      Ratio(static_cast<double>(wal1.bytes_appended - wal0.bytes_appended),
            records),
      "bytes"};
  m["wal.commits_per_fsync"] = {Ratio(records, d(wal1.fsyncs, wal0.fsyncs)),
                                "ratio"};
  const double groups = d(coord1.matched_groups, coord0.matched_groups);
  const double calls = d(coord1.match_calls, coord0.match_calls);
  m["wal.records_per_group"] = {Ratio(records, groups), "ratio"};
  m["coord.submit_us"] = {Sum(tracer, kCoordSubmit, 1).mean_us(), "us"};
  m["coord.match_us_per_call"] = {
      Ratio(static_cast<double>(coord1.match_micros_total -
                                coord0.match_micros_total),
            calls),
      "us"};
  m["coord.search_steps_per_call"] = {
      Ratio(d(coord1.search_steps_total, coord0.search_steps_total), calls),
      "ratio"};
  m["coord.match_calls_per_group"] = {Ratio(calls, groups), "ratio"};
  const double global = d(coord1.global_rounds, coord0.global_rounds);
  m["coord.global_round_frac"] = {
      Ratio(global, global + d(coord1.shard_rounds, coord0.shard_rounds)),
      "fraction"};
  m["coord.failed_install_frac"] = {
      Ratio(d(coord1.failed_installs, coord0.failed_installs), groups),
      "fraction"};
  m["coord.pending_queries"] = {Median(main_phase->pending_samples()),
                                "count"};
  m["coord.callback_lag_us"] = {Sum(tracer, kCoordCallback).mean_us(), "us"};
  return result;
}

}  // namespace perfbench
