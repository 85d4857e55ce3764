// The traced run: the same generated requests at the same rates, sent
// to an in-process engine configured like the server, through public
// functions only. Each request passes the wire codec, is queued on the
// engine's ExecutorService, and then runs its stages — Prepare,
// ExecutePrepared(kTry), SubmitPrepared — on the pool worker that
// dequeued it, with a span around every call.

#ifndef PERFBENCH_DRIVER_TRACED_H_
#define PERFBENCH_DRIVER_TRACED_H_

#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {

struct TracedResult {
  bool ok = false;  ///< Engine came up; every answer matched.
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  /// Primary-operation latency from the scheduled send, in us.
  std::vector<double> primary_us;
  std::vector<double> late_us;
  size_t spans = 0;
  /// Per-layer metrics derived from the spans and the engine's stats()
  /// deltas over the measured window (empty with spans off).
  MetricMap layers;
};

/// Loads the dataset into a fresh engine with its WAL in `data_dir`,
/// drives `phase`, scores its `measured` segment and — when `spans_on`
/// — writes that segment's spans to `spans_path` (TSV).
TracedResult RunTraced(const Options& options, const Dataset& data,
                       const Phase& phase, const Segment& measured,
                       bool spans_on, const std::string& data_dir,
                       const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACED_H_
