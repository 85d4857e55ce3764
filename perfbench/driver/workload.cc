#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <unordered_set>

#include "travel/middle_tier.h"

namespace perfbench {

namespace {

/// Seeded draws. std::mt19937_64 is specified bit-for-bit by the
/// standard; the distributions below are written out so the same seed
/// yields the same requests on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  double Uniform() {  // [0, 1)
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  int Below(int n) { return static_cast<int>(Uniform() * n); }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(static_cast<int>(i))]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over `n` items whose popularity order is a seeded
/// permutation, so the hot items are scattered over the key space.
class Zipf {
 public:
  Zipf(int n, double s, uint64_t permutation_seed) : order_(n), cdf_(n) {
    double sum = 0;
    for (int k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(k + 1.0, s);
      cdf_[k] = sum;
      order_[k] = k;
    }
    for (double& c : cdf_) c /= sum;
    Rng rng(permutation_seed);
    rng.Shuffle(&order_);
  }
  int Sample(Rng* rng) const {
    const double u = rng->Uniform();
    const size_t rank =
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return order_[std::min(rank, order_.size() - 1)];
  }
  /// The item of popularity rank `rank` (0 = hottest).
  int ByRank(int rank) const { return order_[rank]; }

 private:
  std::vector<int> order_;
  std::vector<double> cdf_;
};

std::string Quote(const std::string& s) { return "'" + s + "'"; }

}  // namespace

std::string Dataset::SchemaScript() const {
  return R"sql(
    CREATE TABLE Flights (fno INT NOT NULL, origin TEXT NOT NULL,
                          dest TEXT NOT NULL, day INT NOT NULL,
                          price INT NOT NULL, seats INT NOT NULL);
    CREATE TABLE Hotels (hid INT NOT NULL, city TEXT NOT NULL,
                         day INT NOT NULL, price INT NOT NULL,
                         rooms INT NOT NULL);
    CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL);
    CREATE TABLE HotelReservation (traveler TEXT NOT NULL, hid INT NOT NULL);
    CREATE INDEX ON Flights (dest);
    CREATE INDEX ON Flights (fno);
    CREATE INDEX ON Hotels (city);
    CREATE INDEX ON Reservation (traveler);
    CREATE INDEX ON Reservation (fno);
    CREATE INDEX ON HotelReservation (traveler);
  )sql";
}

std::vector<std::string> Dataset::InsertStatements(int rows_per_insert) const {
  std::vector<std::string> out;
  std::string sql;
  int rows = 0;
  auto add = [&](const char* table, const std::string& row) {
    if (rows == 0) {
      sql = std::string("INSERT INTO ") + table + " VALUES " + row;
    } else {
      sql += ", " + row;
    }
    if (++rows == rows_per_insert) {
      out.push_back(std::move(sql));
      rows = 0;
    }
  };
  auto flush = [&] {
    if (rows > 0) out.push_back(std::move(sql));
    rows = 0;
  };
  for (const Flight& f : flights) {
    add("Flights", "(" + std::to_string(f.fno) + ", " +
                       Quote(cities[f.origin]) + ", " + Quote(cities[f.dest]) +
                       ", " + std::to_string(f.day) + ", " +
                       std::to_string(f.price) + ", " +
                       std::to_string(initial_seats) + ")");
  }
  flush();
  for (int city = 0; city < static_cast<int>(cities.size()); ++city) {
    for (int h = 0; h < hotels_per_city; ++h) {
      for (int day = 1; day <= days; ++day) {
        add("Hotels", "(" + std::to_string(HidOf(city, h)) + ", " +
                          Quote(cities[city]) + ", " + std::to_string(day) +
                          ", " + std::to_string(60 + (h * 37 + day * 11) % 360) +
                          ", 50)");
      }
    }
  }
  flush();
  return out;
}

Dataset MakeDataset(const Options& o) {
  Dataset d;
  for (int c = 0; c < o.cities; ++c) {
    char name[16];
    std::snprintf(name, sizeof(name), "City%02d", c);
    d.cities.push_back(name);
  }
  d.days = o.days;
  d.hotels_per_city = o.hotels_per_city;
  d.initial_seats = o.initial_seats;
  const int c = o.cities;
  d.route_day_count.assign(static_cast<size_t>(c) * c * o.days, 0);
  d.route_day_fno_sum.assign(d.route_day_count.size(), 0);
  Rng rng(o.data_seed);
  int64_t fno = Dataset::kFirstFno;
  for (int origin = 0; origin < c; ++origin) {
    for (int dest = 0; dest < c; ++dest) {
      if (origin == dest) continue;
      for (int day = 1; day <= o.days; ++day) {
        const int n =
            o.min_flights + rng.Below(o.max_flights - o.min_flights + 1);
        for (int k = 0; k < n; ++k) {
          Flight f{fno++, origin, dest, day, 180 + rng.Below(1220)};
          const int rd = d.RouteDay(dest, origin, day);
          ++d.route_day_count[rd];
          d.route_day_fno_sum[rd] += f.fno;
          d.user_bytes += 8 * 4 + d.cities[origin].size() +
                          d.cities[dest].size();
          d.flights.push_back(f);
        }
      }
    }
  }
  d.city_day_hid_sum.assign(static_cast<size_t>(c) * o.days, 0);
  for (int city = 0; city < c; ++city) {
    for (int h = 0; h < o.hotels_per_city; ++h) {
      for (int day = 1; day <= o.days; ++day) {
        d.city_day_hid_sum[d.CityDay(city, day)] += d.HidOf(city, h);
        d.user_bytes += 8 * 4 + d.cities[city].size();
        ++d.hotel_rows;
      }
    }
  }
  return d;
}

Phase MakePhase(const Options& o, const Dataset& d,
                const std::vector<SegmentSpec>& plan, uint64_t stream_seed) {
  Phase p;
  double at = 0;
  for (const SegmentSpec& spec : plan) {
    Segment seg;
    seg.name = spec.name;
    seg.rate = spec.rate;
    seg.start_ns = static_cast<int64_t>(at * 1e9);
    seg.score_from_ns =
        static_cast<int64_t>((at + spec.settle_seconds) * 1e9);
    at += spec.seconds;
    seg.end_ns = static_cast<int64_t>(at * 1e9);
    p.segments.push_back(seg);
  }
  Rng rng(stream_seed);
  const int c = static_cast<int>(d.cities.size());
  // Popularity orders are fixed by the dataset seed: every phase and
  // every run agrees on which routes and flights are hot.
  const Zipf route_days(c * c * d.days, o.zipf_s, o.data_seed + 1);
  const Zipf city_days(c * d.days, o.zipf_s, o.data_seed + 2);
  const Zipf flights(static_cast<int>(d.flights.size()), o.zipf_s,
                     o.data_seed + 3);
  const Zipf hot(std::max(o.hot_texts, 1), o.zipf_s, o.data_seed + 4);
  const Zipf dest_cities(c, o.zipf_s, o.data_seed + 5);

  // Skips the (origin == dest) holes of the route-day index space.
  auto flight_search = [&](int rd) {
    while (true) {
      const int day = rd % d.days + 1;
      const int origin = (rd / d.days) % c;
      const int dest = rd / d.days / c;
      if (origin != dest) {
        Request r;
        r.kind = Kind::kFlightSearch;
        r.key = rd;
        r.sql = "SELECT fno, price FROM Flights WHERE dest = " +
                Quote(d.cities[dest]) + " AND origin = " +
                Quote(d.cities[origin]) + " AND day = " + std::to_string(day);
        return r;
      }
      rd = (rd + d.days) % (c * c * d.days);
    }
  };
  auto browse = [&]() {
    if (rng.Uniform() < o.hotel_search_frac) {
      const int cd = city_days.Sample(&rng);
      Request r;
      r.kind = Kind::kHotelSearch;
      r.key = cd;
      r.sql = "SELECT hid, price FROM Hotels WHERE city = " +
              Quote(d.cities[cd / d.days]) +
              " AND day = " + std::to_string(cd % d.days + 1);
      return r;
    }
    return flight_search(route_days.Sample(&rng));
  };

  double t = 0;
  int unit = 0;
  size_t seg = 0;
  while (seg < p.segments.size()) {
    // Piecewise Poisson: a draw that crosses into the next segment is
    // discarded and redrawn there at that segment's rate (memoryless).
    const double next = t + rng.Exponential(p.segments[seg].rate);
    const double seg_end = static_cast<double>(p.segments[seg].end_ns) / 1e9;
    if (next >= seg_end) {
      t = seg_end;
      ++seg;
      continue;
    }
    t = next;
    const int64_t due = static_cast<int64_t>(t * 1e9);
    if (o.workload == "browse") {
      Request r = browse();
      r.due_ns = due;
      r.conn = rng.Below(o.connections);
      p.requests.push_back(std::move(r));
    } else if (o.workload == "book") {
      Request r;
      if (rng.Uniform() < o.booking_frac) {
        const int fi = flights.Sample(&rng);
        const std::string fno = std::to_string(d.flights[fi].fno);
        r.kind = Kind::kBooking;
        r.key = fi;
        r.traveler = "b" + std::to_string(unit);
        r.sql = "INSERT INTO Reservation VALUES (" + Quote(r.traveler) +
                ", " + fno + "); UPDATE Flights SET seats = seats - 1 " +
                "WHERE fno = " + fno;
        p.user_bytes += r.traveler.size() + 8 + 8;
      } else {
        // The hot set: the most popular route-days, few enough to stay
        // resident in the plan cache.
        r = flight_search(route_days.ByRank(hot.Sample(&rng)));
      }
      r.due_ns = due;
      r.conn = rng.Below(o.connections);
      p.requests.push_back(std::move(r));
    } else {  // coordinate
      Group g;
      const bool quad = rng.Uniform() < o.group_frac && o.group_size > 2;
      const int size = quad ? o.group_size : 2;
      g.hotel = !quad && rng.Uniform() < o.hotel_pair_frac;
      g.city = dest_cities.Sample(&rng);
      g.day = 1 + rng.Below(d.days);
      std::vector<std::string> users;
      for (int m = 0; m < size; ++m) {
        users.push_back("g" + std::to_string(unit) + "_" + std::to_string(m));
      }
      double member_t = t;
      for (int m = 0; m < size; ++m) {
        if (m > 0) member_t += rng.Exponential(1000.0 / o.member_gap_ms);
        youtopia::travel::TravelRequest tr;
        tr.user = users[m];
        for (int j = 0; j < size; ++j) {
          if (j == m) continue;
          tr.flight_companions.push_back(users[j]);
          if (g.hotel) tr.hotel_companions.push_back(users[j]);
        }
        tr.dest = d.cities[g.city];
        tr.day = g.day;
        tr.want_hotel = g.hotel;
        auto sql = youtopia::travel::TravelService::BuildEntangledSql(tr);
        Request r;
        r.kind = Kind::kMember;
        r.key = static_cast<int>(p.groups.size());
        r.traveler = users[m];
        r.sql = sql.ok() ? sql.value() : std::string("invalid");
        r.due_ns = static_cast<int64_t>(member_t * 1e9);
        r.conn = rng.Below(o.connections);
        g.last_due_ns = r.due_ns;
        g.members.push_back(static_cast<int>(p.requests.size()));
        p.requests.push_back(std::move(r));
        p.user_bytes += users[m].size() + 8 + (g.hotel ? users[m].size() + 8 : 0);
      }
      p.groups.push_back(std::move(g));
    }
    ++unit;
  }
  // Members of later groups can be due before earlier groups' trailing
  // members: order by due time, then remap the group member indices.
  std::vector<int> order(p.requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return p.requests[a].due_ns < p.requests[b].due_ns;
  });
  std::vector<int> position(order.size());
  std::vector<Request> sorted;
  sorted.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = static_cast<int>(i);
    sorted.push_back(std::move(p.requests[order[i]]));
  }
  p.requests = std::move(sorted);
  for (Group& g : p.groups) {
    for (int& m : g.members) m = position[m];
  }
  return p;
}

int64_t Phase::ScoreTimeNs(size_t i) const {
  const Request& r = requests[i];
  return r.kind == Kind::kMember ? groups[r.key].last_due_ns : r.due_ns;
}

size_t DistinctTexts(const Phase& phase, const Segment& segment) {
  std::unordered_set<std::string> texts;
  for (const Request& r : phase.requests) {
    if (r.due_ns < segment.score_from_ns || r.due_ns >= segment.end_ns) {
      continue;
    }
    if (r.kind == Kind::kFlightSearch || r.kind == Kind::kHotelSearch) {
      texts.insert(r.sql);
    }
  }
  return texts.size();
}

}  // namespace perfbench
