// The open-loop generator over the wire: one pacing thread per
// connection sends its share of a phase's requests at their scheduled
// times through the async client surface, and harvests responses while
// it waits for the next send. Latency is always taken from the
// scheduled send time.

#ifndef PERFBENCH_DRIVER_OPEN_LOOP_H_
#define PERFBENCH_DRIVER_OPEN_LOOP_H_

#include <functional>
#include <optional>
#include <vector>

#include "common.h"
#include "entangle/coordinator.h"
#include "server/client_interface.h"
#include "workload.h"

namespace perfbench {

/// What happened to one request.
struct Outcome {
  int64_t sent_ns = 0;  ///< Absolute; 0 = never sent.
  int64_t done_ns = 0;  ///< Absolute; 0 = no response by the deadline.
  bool ok = false;
  /// The response disagreed with the generated dataset.
  bool mismatch = false;
  /// Entangled member whose own submit round closed its group.
  bool closed_group = false;
};

struct PhaseRun {
  const Phase* phase = nullptr;
  int64_t start_ns = 0;  ///< Absolute time of the phase's t = 0.
  std::vector<Outcome> outcomes;  ///< By request index.
  std::vector<std::optional<youtopia::EntangledHandle>> handles;
};

/// Called by the first connection's thread as the schedule passes
/// each segment boundary (segment index), so a caller can sample the
/// server between segments of one continuous phase.
using SegmentHook = std::function<void(size_t)>;

/// Drives `phase` starting at absolute `start_ns`, one thread per client
/// (client i serves requests with conn == i). Returns once every
/// response arrived or `drain_s` after the last scheduled send.
/// Entangled handles are returned registered, not necessarily complete;
/// call `AwaitGroups` for that.
PhaseRun RunWirePhase(const Dataset& data, const Phase& phase,
                      const std::vector<youtopia::ClientInterface*>& clients,
                      int64_t start_ns, double drain_s,
                      const SegmentHook& at_segment = nullptr);

/// Waits (until `deadline_ns`) for every registered member handle of
/// `run` and stamps its outcome with the handle's completion time.
void AwaitGroups(PhaseRun* run, int64_t deadline_ns);

/// Checks a search response against the dataset.
bool SearchMatches(const Dataset& data, const Request& request,
                   const youtopia::QueryResult& result);

/// A phase reduced to its end-to-end figures.
struct PhaseStats {
  /// The workload's primary operation: searches (browse), booking
  /// scripts (book) or coordination groups (coordinate), in us.
  std::vector<double> primary_us;
  /// Searches of the `book` workload, running beside the bookings.
  std::vector<double> browse_us;
  std::vector<double> late_us;  ///< Actual minus scheduled send.
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
  /// Median latency of the primary operations arriving in the last
  /// tenth of the segment: above the limit means the backlog was still
  /// growing.
  double tail_median_us = 0;

  double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  /// The ladder's pass rule: p99 under the limit, failures within
  /// budget, no growing backlog.
  bool MeetsSlo(const Options& options) const;
};

/// Scores the requests (groups) of `run` that arrived in `segment`.
PhaseStats Evaluate(const Options& options, const PhaseRun& run,
                    const Segment& segment);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_OPEN_LOOP_H_
