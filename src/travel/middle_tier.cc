#include "travel/middle_tier.h"

#include "common/string_util.h"
#include "travel/travel_schema.h"

namespace youtopia::travel {

namespace {

/// Flight domain subquery for the request's filters.
std::string FlightDomain(const TravelRequest& request) {
  std::string sql = "fno IN (SELECT fno FROM Flights WHERE dest = " +
                    QuoteSqlString(request.dest);
  if (!request.origin.empty()) {
    sql += " AND origin = " + QuoteSqlString(request.origin);
  }
  if (request.day > 0) sql += " AND day = " + std::to_string(request.day);
  if (request.max_price > 0) {
    sql += " AND price <= " + std::to_string(request.max_price);
  }
  sql += ")";
  return sql;
}

std::string HotelDomain(const TravelRequest& request) {
  std::string sql = "hid IN (SELECT hid FROM Hotels WHERE city = " +
                    QuoteSqlString(request.dest);
  if (request.day > 0) sql += " AND day = " + std::to_string(request.day);
  if (request.max_hotel_price > 0) {
    sql += " AND price <= " + std::to_string(request.max_hotel_price);
  }
  sql += ")";
  return sql;
}

}  // namespace

Result<std::string> TravelService::BuildEntangledSql(
    const TravelRequest& request) {
  if (request.user.empty()) {
    return Status::InvalidArgument("request has no user");
  }
  if (request.dest.empty()) {
    return Status::InvalidArgument("request has no destination");
  }
  if (request.adjacent_seat && request.flight_companions.size() != 1) {
    return Status::InvalidArgument(
        "adjacent-seat coordination requires exactly one companion");
  }
  if (request.want_hotel && request.adjacent_seat) {
    return Status::NotImplemented(
        "combined adjacent-seat and hotel coordination is not offered by "
        "the travel frontend");
  }

  const std::string user_lit = QuoteSqlString(request.user);
  std::string heads;
  std::string where;

  if (request.adjacent_seat) {
    // Seat-level coordination into SeatReservation. The lexicographically
    // smaller traveler sits on the lower-numbered seat so that two
    // independently submitted symmetric requests agree.
    const std::string& companion = request.flight_companions[0];
    const std::string offset =
        request.user < companion ? "seat + 1" : "seat - 1";
    heads = user_lit + ", fno, seat INTO ANSWER " +
            std::string(kSeatReservationTable);
    where = FlightDomain(request);
    where += " AND seat IN (SELECT seat FROM Seats WHERE fno = fno)";
    where += " AND (" + QuoteSqlString(companion) + ", fno, " + offset +
             ") IN ANSWER " + kSeatReservationTable;
  } else {
    heads = user_lit + ", fno INTO ANSWER " + std::string(kReservationTable);
    where = FlightDomain(request);
    for (const std::string& companion : request.flight_companions) {
      where += " AND (" + QuoteSqlString(companion) + ", fno) IN ANSWER " +
               kReservationTable;
    }
  }

  if (request.want_hotel) {
    heads += ", " + user_lit + ", hid INTO ANSWER " +
             std::string(kHotelReservationTable);
    where += " AND " + HotelDomain(request);
    for (const std::string& companion : request.hotel_companions) {
      where += " AND (" + QuoteSqlString(companion) + ", hid) IN ANSWER " +
               kHotelReservationTable;
    }
  }

  return "SELECT " + heads + " WHERE " + where + " CHOOSE 1";
}

Status TravelService::ValidateFriends(
    const std::string& user,
    const std::vector<std::string>& companions) const {
  for (const std::string& companion : companions) {
    if (!friends_.AreFriends(user, companion)) {
      return Status::InvalidArgument(user + " and " + companion +
                                     " are not friends");
    }
  }
  return Status::OK();
}

Result<EntangledHandle> TravelService::SubmitRequest(
    const TravelRequest& request) {
  YOUTOPIA_RETURN_IF_ERROR(
      ValidateFriends(request.user, request.flight_companions));
  YOUTOPIA_RETURN_IF_ERROR(
      ValidateFriends(request.user, request.hotel_companions));
  auto sql = BuildEntangledSql(request);
  if (!sql.ok()) return sql.status();
  return client_->SubmitAs(request.user, sql.value());
}

Status TravelService::SubmitRequestAsync(const TravelRequest& request,
                                         uint64_t session,
                                         ExecutorService::Completion on_done) {
  YOUTOPIA_RETURN_IF_ERROR(
      ValidateFriends(request.user, request.flight_companions));
  YOUTOPIA_RETURN_IF_ERROR(
      ValidateFriends(request.user, request.hotel_companions));
  auto sql = BuildEntangledSql(request);
  if (!sql.ok()) return sql.status();
  if (db_ == nullptr) {
    // Borrowed-client backend (e.g. remote): no executor service to
    // queue on. Submit registers synchronously; the completion contract
    // is preserved by delivering the terminal handle through on_done.
    auto shared_done =
        std::make_shared<ExecutorService::Completion>(std::move(on_done));
    auto handle = client_->SubmitAs(
        request.user, sql.value(),
        [shared_done](const EntangledHandle& done) {
          RunOutcome outcome;
          outcome.entangled = true;
          outcome.handle = done;
          (*shared_done)(std::move(outcome));
        });
    return handle.status();
  }
  StatementTask task;
  task.sql = sql.TakeValue();
  task.owner = request.user;
  task.session = session;
  task.kind = StatementTask::Kind::kRun;
  task.wait_for_answer = true;
  task.on_done = std::move(on_done);
  return db_->executor_service().Submit(std::move(task));
}

Result<std::vector<EntangledHandle>> TravelService::SubmitGroupRequest(
    const std::vector<TravelRequest>& requests) {
  std::vector<std::string> owners;
  std::vector<std::string> statements;
  owners.reserve(requests.size());
  statements.reserve(requests.size());
  for (const TravelRequest& request : requests) {
    YOUTOPIA_RETURN_IF_ERROR(
        ValidateFriends(request.user, request.flight_companions));
    YOUTOPIA_RETURN_IF_ERROR(
        ValidateFriends(request.user, request.hotel_companions));
    auto sql = BuildEntangledSql(request);
    if (!sql.ok()) return sql.status();
    owners.push_back(request.user);
    statements.push_back(sql.TakeValue());
  }
  return client_->SubmitBatchAs(owners, statements);
}

Result<EntangledHandle> TravelService::BookFlightWithFriend(
    const std::string& user, const std::string& friend_name,
    const std::string& dest, int day, int max_price) {
  TravelRequest request;
  request.user = user;
  request.flight_companions = {friend_name};
  request.dest = dest;
  request.day = day;
  request.max_price = max_price;
  return SubmitRequest(request);
}

Result<EntangledHandle> TravelService::BookFlightAndHotelWithFriend(
    const std::string& user, const std::string& friend_name,
    const std::string& dest, int day) {
  TravelRequest request;
  request.user = user;
  request.flight_companions = {friend_name};
  request.hotel_companions = {friend_name};
  request.dest = dest;
  request.day = day;
  request.want_hotel = true;
  return SubmitRequest(request);
}

Result<QueryResult> TravelService::BrowseFlights(const std::string& dest,
                                                 int day, int max_price) {
  std::string sql =
      "SELECT fno, origin, dest, day, price, seats FROM Flights WHERE "
      "dest = " +
      QuoteSqlString(dest);
  if (day > 0) sql += " AND day = " + std::to_string(day);
  if (max_price > 0) sql += " AND price <= " + std::to_string(max_price);
  return client_->Execute(sql);
}

Result<std::vector<std::string>> TravelService::FriendsOnFlight(
    const std::string& user, int64_t fno) {
  auto result = client_->Execute(
      "SELECT traveler FROM Reservation WHERE fno = " + std::to_string(fno));
  if (!result.ok()) return result.status();
  std::vector<std::string> out;
  for (const Tuple& row : result->rows) {
    const std::string& traveler = row.at(0).string_value();
    if (friends_.AreFriends(user, traveler)) out.push_back(traveler);
  }
  return out;
}

Result<EntangledHandle> TravelService::BookFlightDirect(
    const std::string& user, int64_t fno) {
  const std::string sql =
      "SELECT " + QuoteSqlString(user) + ", fno INTO ANSWER " +
      kReservationTable + " WHERE fno IN (SELECT fno FROM Flights WHERE "
      "fno = " + std::to_string(fno) + ") CHOOSE 1";
  return client_->SubmitAs(user, sql);
}

Result<AccountInfo> TravelService::AccountView(const std::string& user) {
  AccountInfo info;
  auto flights = client_->Execute(
      "SELECT fno FROM Reservation WHERE traveler = " + QuoteSqlString(user));
  if (!flights.ok()) return flights.status();
  info.flights = flights.TakeValue();
  auto hotels = client_->Execute(
      "SELECT hid FROM HotelReservation WHERE traveler = " +
      QuoteSqlString(user));
  if (!hotels.ok()) return hotels.status();
  info.hotels = hotels.TakeValue();
  auto seats = client_->Execute(
      "SELECT fno, seat FROM SeatReservation WHERE traveler = " +
      QuoteSqlString(user));
  if (!seats.ok()) return seats.status();
  info.seats = seats.TakeValue();
  return info;
}

namespace {

std::string ConfirmedMessage(const EntangledHandle& handle) {
  std::string message = "Your coordinated booking is confirmed:";
  for (const Tuple& answer : handle.Answers()) {
    message += " " + answer.ToString();
  }
  return message;
}

/// The demo's "Facebook message" for a handle that reached a terminal
/// state (the OnComplete path — `outcome` is never "still waiting").
std::string TerminalMessage(const EntangledHandle& handle,
                            const Status& outcome) {
  switch (outcome.code()) {
    case StatusCode::kOk:
      return ConfirmedMessage(handle);
    case StatusCode::kAborted:
      return "Your booking request was cancelled: " + outcome.ToString();
    case StatusCode::kTimedOut:
      return "Your booking request expired before a partner arrived: " +
             outcome.ToString();
    default:
      return "Your booking request failed: " + outcome.ToString();
  }
}

}  // namespace

void TravelService::NotifyOnCompletion(EntangledHandle handle,
                                       const std::string& user) {
  if (bus_ == nullptr) return;
  NotificationBus* bus = bus_;
  handle.OnComplete([bus, user](const EntangledHandle& done) {
    bus->Publish(user, TerminalMessage(
                           done, done.Outcome().value_or(Status::OK())));
  });
}

Status TravelService::WaitAndNotify(const EntangledHandle& handle,
                                    const std::string& user,
                                    std::chrono::milliseconds timeout) {
  Status outcome = handle.Wait(timeout);
  if (bus_ != nullptr) {
    if (outcome.code() == StatusCode::kTimedOut && !handle.Done()) {
      // The *wait* timed out; the request itself is still in flight.
      bus_->Publish(user, "Your booking request is still pending: " +
                              outcome.ToString());
    } else {
      // Re-read the terminal status: the handle may have completed
      // between Wait timing out and the Done() check above, and the
      // stale wait status would misreport a satisfied booking.
      bus_->Publish(user, TerminalMessage(
                              handle, handle.Outcome().value_or(outcome)));
    }
  }
  return outcome;
}

Status TravelService::EnableInventoryEnforcement() {
  if (db_ == nullptr) {
    return Status::NotImplemented(
        "inventory enforcement installs a coordinator hook; enable it on "
        "the engine hosting the server, not through a remote client");
  }
  Youtopia* db = db_;
  db_->coordinator().SetInstallHook(
      [db](Transaction* txn, TxnManager* txn_manager,
           const MatchResult& match) -> Status {
        for (const auto& [relation, tuple] : match.installed) {
          if (EqualsIgnoreCase(relation, kReservationTable)) {
            // (traveler, fno): consume one seat on the flight.
            const Value& fno = tuple.at(1);
            auto flights = txn_manager->Probe(txn, kFlightsTable, {{0, fno}});
            if (!flights.ok()) return flights.status();
            if (flights->empty()) {
              return Status::Aborted("no such flight " + fno.ToString());
            }
            auto& [rid, flight] = flights->front();
            const int64_t seats = flight.at(5).int64_value();
            if (seats <= 0) {
              return Status::Aborted("flight " + fno.ToString() +
                                     " is sold out");
            }
            flight.at(5) = Value::Int64(seats - 1);
            YOUTOPIA_RETURN_IF_ERROR(
                txn_manager->Update(txn, kFlightsTable, rid, flight));
          } else if (EqualsIgnoreCase(relation, kHotelReservationTable)) {
            // (traveler, hid): consume one room (any day row works —
            // rooms are tracked per hotel on the first row found).
            const Value& hid = tuple.at(1);
            auto hotels = txn_manager->Probe(txn, kHotelsTable, {{0, hid}});
            if (!hotels.ok()) return hotels.status();
            if (hotels->empty()) {
              return Status::Aborted("no such hotel " + hid.ToString());
            }
            auto& [rid, hotel] = hotels->front();
            const int64_t rooms = hotel.at(4).int64_value();
            if (rooms <= 0) {
              return Status::Aborted("hotel " + hid.ToString() +
                                     " is fully booked");
            }
            hotel.at(4) = Value::Int64(rooms - 1);
            YOUTOPIA_RETURN_IF_ERROR(
                txn_manager->Update(txn, kHotelsTable, rid, hotel));
          } else if (EqualsIgnoreCase(relation, kSeatReservationTable)) {
            // (traveler, fno, seat): claim the seat by removing it from
            // the open inventory; a vanished row means another group
            // took it and this round must abort.
            const Value& fno = tuple.at(1);
            const Value& seat = tuple.at(2);
            auto seats =
                txn_manager->Probe(txn, kSeatsTable, {{0, fno}, {1, seat}});
            if (!seats.ok()) return seats.status();
            if (seats->empty()) {
              return Status::Aborted("seat " + seat.ToString() +
                                     " on flight " + fno.ToString() +
                                     " is no longer available");
            }
            YOUTOPIA_RETURN_IF_ERROR(
                txn_manager->Delete(txn, kSeatsTable, seats->front().first));
          }
        }
        return Status::OK();
      });
  return Status::OK();
}

}  // namespace youtopia::travel
