// Shared plumbing of the perfbench driver: options, clocks, latency
// summaries and the JSON result line.

#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline int64_t NowNs() { return ToNs(Clock::now()); }
inline Clock::time_point FromNs(int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// Everything a run needs. `run.py` flattens perfbench/config.json (the
/// common section plus the chosen workload's section) into `--key=value`
/// flags; the driver has no defaults of its own for anything that shapes
/// the load, so the configuration file is the single record of it.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string server_bin;
  /// Scratch directory inside the checkout: data dirs, span files.
  std::string work_dir;

  // Server (and the in-process engine of the traced run).
  int shards = 0;
  int workers = 0;
  int admission = 0;
  int connections = 0;

  // Dataset.
  uint64_t data_seed = 0;
  int cities = 0;
  int days = 0;
  int min_flights = 0;
  int max_flights = 0;
  int hotels_per_city = 0;
  int initial_seats = 0;
  int rows_per_insert = 0;

  // Run shape.
  int setup_repeats = 0;
  int recovery_repeats = 0;
  double warmup_s = 0;
  double nominal_share = 0;
  /// Leading share of each ladder step left unscored while queues and
  /// the pending pool settle at the step's rate.
  double settle_share = 0;
  double drain_s = 0;
  double late_p99_bound_us = 0;
  double max_fail_frac = 0;

  // Workload.
  double rate = 0;
  std::vector<double> ladder;
  double p99_limit_us = 0;
  double zipf_s = 0;
  double hotel_search_frac = 0;
  int hot_texts = 0;
  double booking_frac = 0;
  double group_frac = 0;
  int group_size = 0;
  double hotel_pair_frac = 0;
  double member_gap_ms = 0;
};

/// Parses `--key=value` flags; exits with a message on unknown keys or
/// missing required values.
Options ParseOptions(int argc, char** argv);

/// Nearest-rank percentile (q in [0, 1]) of raw samples. 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// A latency series reduced to what the report prints.
struct LatencySummary {
  size_t n = 0;
  double p50_us = 0;
  double p99_us = 0;
};
LatencySummary Summarize(const std::vector<double>& micros);

/// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Human-readable report line: `name value unit (n=samples)`.
void Report(const std::string& name, double value, const std::string& unit,
            size_t samples);

/// The last line of standard output.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricMap& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
