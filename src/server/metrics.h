#ifndef YOUTOPIA_SERVER_METRICS_H_
#define YOUTOPIA_SERVER_METRICS_H_

#include <string>

#include "server/youtopia.h"

namespace youtopia {

/// Appends the engine's counters to `out` in Prometheus text-exposition
/// format (`# TYPE` lines plus `name value`): executor-service queue
/// depth and shed/rejected counts, coordinator counters, plan-cache
/// hit/miss/eviction counts, process resident memory (current and
/// peak, where /proc/self/status exists), WAL append/fsync/checkpoint
/// counts, and MVCC state. This is the admin snapshot made
/// machine-readable — the net layer adds its own request/latency series
/// on top and serves the whole page through the metrics endpoint.
void AppendEngineMetrics(const Youtopia& db, std::string* out);

/// One "# TYPE" header plus one sample, e.g.
/// `youtopia_executor_shed_total 42`.
void AppendMetric(const std::string& name, const std::string& type,
                  double value, std::string* out);

}  // namespace youtopia

#endif  // YOUTOPIA_SERVER_METRICS_H_
