#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>

namespace perfbench {

namespace {

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::atof(item.c_str()));
  }
  return out;
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options o;
  std::map<std::string, std::function<void(const std::string&)>> setters;
  auto num = [&](const char* key, double* field) {
    setters[key] = [field](const std::string& v) {
      *field = std::atof(v.c_str());
    };
  };
  auto integer = [&](const char* key, int* field) {
    setters[key] = [field](const std::string& v) {
      *field = std::atoi(v.c_str());
    };
  };
  setters["workload"] = [&](const std::string& v) { o.workload = v; };
  setters["seed"] = [&](const std::string& v) {
    o.seed = std::strtoull(v.c_str(), nullptr, 10);
  };
  setters["data_seed"] = [&](const std::string& v) {
    o.data_seed = std::strtoull(v.c_str(), nullptr, 10);
  };
  setters["trace"] = [&](const std::string& v) { o.trace = v == "1"; };
  setters["server_bin"] = [&](const std::string& v) { o.server_bin = v; };
  setters["work_dir"] = [&](const std::string& v) { o.work_dir = v; };
  setters["ladder"] = [&](const std::string& v) { o.ladder = ParseList(v); };
  num("seconds", &o.seconds);
  integer("shards", &o.shards);
  integer("workers", &o.workers);
  integer("admission", &o.admission);
  integer("connections", &o.connections);
  integer("cities", &o.cities);
  integer("days", &o.days);
  integer("min_flights", &o.min_flights);
  integer("max_flights", &o.max_flights);
  integer("hotels_per_city", &o.hotels_per_city);
  integer("initial_seats", &o.initial_seats);
  integer("rows_per_insert", &o.rows_per_insert);
  integer("setup_repeats", &o.setup_repeats);
  integer("recovery_repeats", &o.recovery_repeats);
  num("warmup_s", &o.warmup_s);
  num("nominal_share", &o.nominal_share);
  num("settle_share", &o.settle_share);
  num("drain_s", &o.drain_s);
  num("late_p99_bound_us", &o.late_p99_bound_us);
  num("max_fail_frac", &o.max_fail_frac);
  num("rate", &o.rate);
  num("p99_limit_us", &o.p99_limit_us);
  num("zipf_s", &o.zipf_s);
  num("hotel_search_frac", &o.hotel_search_frac);
  integer("hot_texts", &o.hot_texts);
  num("booking_frac", &o.booking_frac);
  num("group_frac", &o.group_frac);
  integer("group_size", &o.group_size);
  num("hotel_pair_frac", &o.hotel_pair_frac);
  num("member_gap_ms", &o.member_gap_ms);

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      std::fprintf(stderr, "perfbench_driver: bad argument '%s'\n", arg);
      std::exit(2);
    }
    const std::string key(arg + 2, eq);
    auto it = setters.find(key);
    if (it == setters.end()) {
      std::fprintf(stderr, "perfbench_driver: unknown option '%s'\n",
                   key.c_str());
      std::exit(2);
    }
    it->second(eq + 1);
  }
  if (o.workload.empty() || o.server_bin.empty() || o.work_dir.empty() ||
      o.seconds <= 0 || o.rate <= 0 || o.connections < 1 || o.cities < 2 ||
      o.days < 1 || o.rows_per_insert < 1 || o.ladder.empty()) {
    std::fprintf(stderr, "perfbench_driver: incomplete configuration\n");
    std::exit(2);
  }
  return o;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

LatencySummary Summarize(const std::vector<double>& micros) {
  LatencySummary s;
  s.n = micros.size();
  s.p50_us = Percentile(micros, 0.50);
  s.p99_us = Percentile(micros, 0.99);
  return s;
}

void Report(const std::string& name, double value, const std::string& unit,
            size_t samples) {
  std::printf("  %-32s %14.4f %-8s (n=%zu)\n", name.c_str(), value,
              unit.c_str(), samples);
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
