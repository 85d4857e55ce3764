// The generated travel dataset and the open-loop request schedules of
// the three workloads. Everything here is a pure function of the
// options and the seeds: the wire run and the traced run replay the
// identical requests, and the server only ever sees the SQL text.

#ifndef PERFBENCH_DRIVER_WORKLOAD_H_
#define PERFBENCH_DRIVER_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Flight {
  int64_t fno = 0;
  int origin = 0;
  int dest = 0;
  int day = 0;
  int price = 0;
};

struct Dataset {
  std::vector<std::string> cities;
  int days = 0;
  int hotels_per_city = 0;
  int initial_seats = 0;
  std::vector<Flight> flights;  ///< fno = flights[i].fno, dense from kFirstFno.
  /// Per (dest, origin, day) route-day: number of flights and their fno sum.
  std::vector<int> route_day_count;
  std::vector<int64_t> route_day_fno_sum;
  /// Per (city, day): hid sum of the city's hotels (count is hotels_per_city).
  std::vector<int64_t> city_day_hid_sum;
  size_t hotel_rows = 0;
  /// Bytes of the loaded row values (8 per INT, length per TEXT).
  uint64_t user_bytes = 0;

  static constexpr int64_t kFirstFno = 1000;
  static constexpr int64_t kFirstHid = 500;

  size_t rows() const { return flights.size() + hotel_rows; }
  int RouteDay(int dest, int origin, int day) const {
    return (dest * static_cast<int>(cities.size()) + origin) * days + day - 1;
  }
  int CityDay(int city, int day) const { return city * days + day - 1; }
  int64_t HidOf(int city, int h) const {
    return kFirstHid + city * hotels_per_city + h;
  }

  /// DDL: the travel schema's tables and indexes the workloads use.
  std::string SchemaScript() const;
  /// Multi-row INSERT statements holding every row.
  std::vector<std::string> InsertStatements(int rows_per_insert) const;
};

Dataset MakeDataset(const Options& options);

enum class Kind : uint8_t {
  kFlightSearch,  ///< key = route-day index
  kHotelSearch,   ///< key = city-day index
  kBooking,       ///< key = flight index
  kMember,        ///< key = group index (within the phase)
};

struct Request {
  int64_t due_ns = 0;  ///< Scheduled send, relative to the phase start.
  int conn = 0;
  Kind kind = Kind::kFlightSearch;
  int key = 0;
  std::string sql;
  std::string traveler;  ///< Booking traveler or member user.
};

/// One coordination group of the `coordinate` workload.
struct Group {
  int city = 0;
  int day = 0;
  bool hotel = false;
  std::vector<int> members;  ///< Request indices, in send order.
  int64_t last_due_ns = 0;
};

/// A stretch of a phase at one offered rate. Requests (groups: their
/// last member) due in [score_from_ns, end_ns) are scored; the
/// part before lets queues and the pending pool settle at the new rate.
struct Segment {
  std::string name;
  double rate = 0;  ///< Requests/s, or groups/s for `coordinate`.
  int64_t start_ns = 0;
  int64_t score_from_ns = 0;
  int64_t end_ns = 0;
};

/// One uninterrupted open-loop schedule: Poisson arrivals whose rate
/// steps from segment to segment, so a step up never starts from an
/// empty queue or pool.
struct Phase {
  std::vector<Segment> segments;
  std::vector<Request> requests;  ///< Sorted by due_ns.
  std::vector<Group> groups;
  /// Bytes of user row values this phase writes (bookings, answers).
  uint64_t user_bytes = 0;

  /// When request `i`'s unit of work counts as offered: its own due
  /// time, or for a group member the group's last member's due time —
  /// group latency runs from that send, so a group belongs to the
  /// segment whose load it met.
  int64_t ScoreTimeNs(size_t i) const;
};

/// Segment plan: rate, seconds, and the leading seconds left unscored.
struct SegmentSpec {
  std::string name;
  double rate = 0;
  double seconds = 0;
  double settle_seconds = 0;
};

/// Generates the phase's requests from `stream_seed`.
Phase MakePhase(const Options& options, const Dataset& data,
                const std::vector<SegmentSpec>& plan, uint64_t stream_seed);

/// Distinct search texts among the requests scored in `segment`.
size_t DistinctTexts(const Phase& phase, const Segment& segment);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOAD_H_
