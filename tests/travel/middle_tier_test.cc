#include "travel/middle_tier.h"

#include <gtest/gtest.h>

#include "travel/travel_schema.h"

namespace youtopia::travel {
namespace {

using std::chrono::milliseconds;

class MiddleTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(SetupFigure1(&db_).ok());
    // Figure-1 schema lacks hotels; add them plus the hotel answer
    // relation for the flight+hotel scenario.
    ASSERT_TRUE(db_.ExecuteScript(
                       "CREATE TABLE Hotels (hid INT NOT NULL, city TEXT NOT "
                       "NULL, day INT NOT NULL, price INT NOT NULL, rooms INT "
                       "NOT NULL);"
                       "INSERT INTO Hotels VALUES (501, 'Paris', 1, 120, 4), "
                       "(502, 'Paris', 1, 300, 4);"
                       "CREATE TABLE HotelReservation (traveler TEXT NOT "
                       "NULL, hid INT NOT NULL);"
                       "CREATE TABLE SeatReservation (traveler TEXT NOT "
                       "NULL, fno INT NOT NULL, seat INT NOT NULL);")
                    .ok());
    service_ = std::make_unique<TravelService>(
        &db_, FriendGraph::Clique({"Jerry", "Kramer", "Elaine", "George"}),
        &bus_);
  }

  Youtopia db_;
  NotificationBus bus_;
  std::unique_ptr<TravelService> service_;
};

TEST_F(MiddleTierTest, BuildsPaperShapedSql) {
  TravelRequest request;
  request.user = "Kramer";
  request.flight_companions = {"Jerry"};
  request.dest = "Paris";
  auto sql = TravelService::BuildEntangledSql(request);
  ASSERT_TRUE(sql.ok()) << sql.status();
  EXPECT_EQ(*sql,
            "SELECT 'Kramer', fno INTO ANSWER Reservation WHERE fno IN "
            "(SELECT fno FROM Flights WHERE dest = 'Paris') AND "
            "('Jerry', fno) IN ANSWER Reservation CHOOSE 1");
}

TEST_F(MiddleTierTest, BuildValidation) {
  TravelRequest bad;
  bad.dest = "Paris";
  EXPECT_FALSE(TravelService::BuildEntangledSql(bad).ok());  // no user
  bad.user = "Jerry";
  bad.dest = "";
  EXPECT_FALSE(TravelService::BuildEntangledSql(bad).ok());  // no dest
  TravelRequest adjacent;
  adjacent.user = "Jerry";
  adjacent.dest = "Paris";
  adjacent.adjacent_seat = true;  // needs exactly one companion
  EXPECT_FALSE(TravelService::BuildEntangledSql(adjacent).ok());
}

TEST_F(MiddleTierTest, FiltersAppearInSql) {
  TravelRequest request;
  request.user = "Jerry";
  request.dest = "Paris";
  request.origin = "NewYork";
  request.day = 3;
  request.max_price = 700;
  auto sql = TravelService::BuildEntangledSql(request);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("origin = 'NewYork'"), std::string::npos);
  EXPECT_NE(sql->find("day = 3"), std::string::npos);
  EXPECT_NE(sql->find("price <= 700"), std::string::npos);
}

TEST_F(MiddleTierTest, NonFriendsRejected) {
  auto handle = service_->BookFlightWithFriend("Jerry", "Newman", "Paris");
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MiddleTierTest, PairBookingCoordinates) {
  auto kramer = service_->BookFlightWithFriend("Kramer", "Jerry", "Paris");
  ASSERT_TRUE(kramer.ok()) << kramer.status();
  EXPECT_FALSE(kramer->Done());
  auto jerry = service_->BookFlightWithFriend("Jerry", "Kramer", "Paris");
  ASSERT_TRUE(jerry.ok());
  EXPECT_TRUE(kramer->Done());
  EXPECT_TRUE(jerry->Done());
  EXPECT_EQ(kramer->Answers()[0].at(1), jerry->Answers()[0].at(1));
}

TEST_F(MiddleTierTest, GroupRequestSubmitsAsOneBatch) {
  const std::vector<std::string> group = {"Jerry", "Kramer", "Elaine"};
  std::vector<TravelRequest> requests;
  for (const auto& self : group) {
    TravelRequest request;
    request.user = self;
    for (const auto& other : group) {
      if (other != self) request.flight_companions.push_back(other);
    }
    request.dest = "Paris";
    requests.push_back(std::move(request));
  }
  auto handles = service_->SubmitGroupRequest(requests);
  ASSERT_TRUE(handles.ok()) << handles.status();
  ASSERT_EQ(handles->size(), 3u);
  for (const auto& handle : *handles) EXPECT_TRUE(handle.Done());
  EXPECT_EQ((*handles)[0].Answers()[0].at(1),
            (*handles)[2].Answers()[0].at(1));
  auto stats = db_.coordinator().stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 3u);
}

TEST_F(MiddleTierTest, GroupRequestValidatesEveryMember) {
  TravelRequest good;
  good.user = "Jerry";
  good.flight_companions = {"Kramer"};
  good.dest = "Paris";
  TravelRequest bad;
  bad.user = "Kramer";
  bad.flight_companions = {"Newman"};  // not in the clique
  bad.dest = "Paris";
  auto handles = service_->SubmitGroupRequest({good, bad});
  EXPECT_EQ(handles.status().code(), StatusCode::kInvalidArgument);
  // All-or-nothing: the valid member was not registered either.
  EXPECT_EQ(db_.coordinator().pending_count(), 0u);
}

TEST_F(MiddleTierTest, NotifyOnCompletionPublishesWithoutBlocking) {
  auto kramer = service_->BookFlightWithFriend("Kramer", "Jerry", "Paris");
  ASSERT_TRUE(kramer.ok());
  service_->NotifyOnCompletion(*kramer, "Kramer");
  EXPECT_EQ(bus_.MessagesFor("Kramer").size(), 0u);

  // Jerry's submission closes the pair; Kramer's notification is
  // published from that call path — nobody waited on the handle.
  auto jerry = service_->BookFlightWithFriend("Jerry", "Kramer", "Paris");
  ASSERT_TRUE(jerry.ok());
  ASSERT_EQ(bus_.MessagesFor("Kramer").size(), 1u);
  EXPECT_NE(bus_.MessagesFor("Kramer")[0].find("confirmed"),
            std::string::npos);

  // Registration on an already-completed handle publishes immediately.
  service_->NotifyOnCompletion(*jerry, "Jerry");
  ASSERT_EQ(bus_.MessagesFor("Jerry").size(), 1u);
}

TEST_F(MiddleTierTest, NotifyOnCompletionReportsCancellation) {
  auto kramer = service_->BookFlightWithFriend("Kramer", "Jerry", "Paris");
  ASSERT_TRUE(kramer.ok());
  service_->NotifyOnCompletion(*kramer, "Kramer");
  ASSERT_TRUE(db_.coordinator().Cancel(kramer->id()).ok());
  ASSERT_EQ(bus_.MessagesFor("Kramer").size(), 1u);
  // A cancelled booking must not read as "still pending".
  EXPECT_NE(bus_.MessagesFor("Kramer")[0].find("cancelled"),
            std::string::npos);

  // Expiry reads as expiry.
  auto elaine = service_->BookFlightWithFriend("Elaine", "George", "Paris");
  ASSERT_TRUE(elaine.ok());
  service_->NotifyOnCompletion(*elaine, "Elaine");
  ASSERT_TRUE(db_.coordinator().ExpireOlderThan(milliseconds(0)).ok());
  ASSERT_EQ(bus_.MessagesFor("Elaine").size(), 1u);
  EXPECT_NE(bus_.MessagesFor("Elaine")[0].find("expired"),
            std::string::npos);
}

TEST_F(MiddleTierTest, WaitAndNotifyPublishes) {
  auto kramer = service_->BookFlightWithFriend("Kramer", "Jerry", "Paris");
  auto jerry = service_->BookFlightWithFriend("Jerry", "Kramer", "Paris");
  ASSERT_TRUE(kramer.ok());
  ASSERT_TRUE(jerry.ok());
  EXPECT_TRUE(service_->WaitAndNotify(*kramer, "Kramer").ok());
  EXPECT_TRUE(service_->WaitAndNotify(*jerry, "Jerry").ok());
  ASSERT_EQ(bus_.MessagesFor("Kramer").size(), 1u);
  EXPECT_NE(bus_.MessagesFor("Kramer")[0].find("confirmed"),
            std::string::npos);
}

TEST_F(MiddleTierTest, WaitAndNotifyReportsPending) {
  auto kramer = service_->BookFlightWithFriend("Kramer", "Jerry", "Paris");
  ASSERT_TRUE(kramer.ok());
  EXPECT_EQ(service_->WaitAndNotify(*kramer, "Kramer", milliseconds(20))
                .code(),
            StatusCode::kTimedOut);
  ASSERT_EQ(bus_.MessagesFor("Kramer").size(), 1u);
  EXPECT_NE(bus_.MessagesFor("Kramer")[0].find("pending"),
            std::string::npos);
}

TEST_F(MiddleTierTest, FlightAndHotelCoordination) {
  auto jerry =
      service_->BookFlightAndHotelWithFriend("Jerry", "Kramer", "Paris");
  ASSERT_TRUE(jerry.ok()) << jerry.status();
  EXPECT_FALSE(jerry->Done());
  auto kramer =
      service_->BookFlightAndHotelWithFriend("Kramer", "Jerry", "Paris");
  ASSERT_TRUE(kramer.ok());
  EXPECT_TRUE(jerry->Done());
  EXPECT_TRUE(kramer->Done());
  // Two heads: flight answer and hotel answer.
  ASSERT_EQ(jerry->Answers().size(), 2u);
  ASSERT_EQ(kramer->Answers().size(), 2u);
  EXPECT_EQ(jerry->Answers()[0].at(1), kramer->Answers()[0].at(1));  // fno
  EXPECT_EQ(jerry->Answers()[1].at(1), kramer->Answers()[1].at(1));  // hid
}

TEST_F(MiddleTierTest, BrowseFlights) {
  auto flights = service_->BrowseFlights("Paris");
  // Figure-1 Flights table lacks the richer columns; BrowseFlights
  // selects them, so this errors — verify with full schema instead.
  EXPECT_FALSE(flights.ok());

  Youtopia db2;
  ASSERT_TRUE(CreateTravelSchema(&db2).ok());
  ASSERT_TRUE(db2.Execute("INSERT INTO Flights VALUES "
                          "(1, 'NewYork', 'Paris', 1, 500, 5), "
                          "(2, 'NewYork', 'Paris', 2, 900, 5)")
                  .ok());
  TravelService service2(&db2, FriendGraph::Clique({"A", "B"}), nullptr);
  auto browse = service2.BrowseFlights("Paris", /*day=*/0,
                                       /*max_price=*/600);
  ASSERT_TRUE(browse.ok()) << browse.status();
  EXPECT_EQ(browse->rows.size(), 1u);
}

TEST_F(MiddleTierTest, FriendsOnFlightFiltersByFriendship) {
  ASSERT_TRUE(db_.Execute("INSERT INTO Reservation VALUES "
                          "('Kramer', 122), ('Newman', 122)")
                  .ok());
  auto friends = service_->FriendsOnFlight("Jerry", 122);
  ASSERT_TRUE(friends.ok());
  EXPECT_EQ(*friends, std::vector<std::string>{"Kramer"});
}

TEST_F(MiddleTierTest, DirectBookingCompletesImmediately) {
  auto handle = service_->BookFlightDirect("Jerry", 122);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_TRUE(handle->Done());
  EXPECT_EQ(handle->Answers()[0].at(1).int64_value(), 122);
  auto account = service_->AccountView("Jerry");
  ASSERT_TRUE(account.ok());
  EXPECT_EQ(account->flights.rows.size(), 1u);
  EXPECT_TRUE(account->hotels.rows.empty());
}

TEST_F(MiddleTierTest, AdHocMixedCoordination) {
  // Jerry <-> Kramer on flight only; Kramer <-> Elaine on flight+hotel
  // (the demo's ad-hoc example, §3.1).
  auto jerry = service_->BookFlightWithFriend("Jerry", "Kramer", "Paris");
  ASSERT_TRUE(jerry.ok());

  TravelRequest kramer_request;
  kramer_request.user = "Kramer";
  kramer_request.flight_companions = {"Jerry", "Elaine"};
  kramer_request.hotel_companions = {"Elaine"};
  kramer_request.dest = "Paris";
  kramer_request.want_hotel = true;
  auto kramer = service_->SubmitRequest(kramer_request);
  ASSERT_TRUE(kramer.ok()) << kramer.status();

  TravelRequest elaine_request;
  elaine_request.user = "Elaine";
  elaine_request.flight_companions = {"Kramer"};
  elaine_request.hotel_companions = {"Kramer"};
  elaine_request.dest = "Paris";
  elaine_request.want_hotel = true;
  auto elaine = service_->SubmitRequest(elaine_request);
  ASSERT_TRUE(elaine.ok()) << elaine.status();

  EXPECT_TRUE(jerry->Done());
  EXPECT_TRUE(kramer->Done());
  EXPECT_TRUE(elaine->Done());
  // All three on the same flight.
  EXPECT_EQ(jerry->Answers()[0].at(1), kramer->Answers()[0].at(1));
  EXPECT_EQ(kramer->Answers()[0].at(1), elaine->Answers()[0].at(1));
  // Kramer and Elaine share a hotel.
  EXPECT_EQ(kramer->Answers()[1].at(1), elaine->Answers()[1].at(1));
}

TEST_F(MiddleTierTest, InventoryEnforcementConsumesSeats) {
  Youtopia db2;
  ASSERT_TRUE(CreateTravelSchema(&db2).ok());
  // One flight with exactly 2 seats.
  ASSERT_TRUE(db2.Execute("INSERT INTO Flights VALUES "
                          "(1, 'NewYork', 'Paris', 1, 500, 2)")
                  .ok());
  TravelService service2(&db2, FriendGraph::Clique({"A", "B", "C", "D"}),
                         nullptr);
  ASSERT_TRUE(service2.EnableInventoryEnforcement().ok());

  auto a = service2.BookFlightWithFriend("A", "B", "Paris");
  auto b = service2.BookFlightWithFriend("B", "A", "Paris");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->Done());
  EXPECT_TRUE(b->Done());
  auto seats = db2.Execute("SELECT seats FROM Flights WHERE fno = 1");
  EXPECT_EQ(seats->rows[0].at(0).int64_value(), 0);

  // Flight is now full: the next pair cannot complete.
  auto c = service2.BookFlightWithFriend("C", "D", "Paris");
  auto d = service2.BookFlightWithFriend("D", "C", "Paris");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(c->Done());
  EXPECT_FALSE(d->Done());
  EXPECT_GE(db2.coordinator().stats().failed_installs, 1u);
}

TEST_F(MiddleTierTest, AdjacentSeatRequestsAgreeOnOffsets) {
  TravelRequest a;
  a.user = "Jerry";
  a.flight_companions = {"Kramer"};
  a.dest = "Paris";
  a.adjacent_seat = true;
  auto sql_a = TravelService::BuildEntangledSql(a);
  ASSERT_TRUE(sql_a.ok());
  // Jerry < Kramer lexicographically: Jerry takes seat + 1.
  EXPECT_NE(sql_a->find("seat + 1"), std::string::npos);

  TravelRequest b = a;
  b.user = "Kramer";
  b.flight_companions = {"Jerry"};
  auto sql_b = TravelService::BuildEntangledSql(b);
  ASSERT_TRUE(sql_b.ok());
  EXPECT_NE(sql_b->find("seat - 1"), std::string::npos);
}

TEST_F(MiddleTierTest, AdjacentSeatEndToEnd) {
  Youtopia db2;
  ASSERT_TRUE(CreateTravelSchema(&db2).ok());
  ASSERT_TRUE(db2.Execute("INSERT INTO Flights VALUES "
                          "(1, 'NewYork', 'Paris', 1, 500, 4)")
                  .ok());
  ASSERT_TRUE(db2.Execute("INSERT INTO Seats VALUES "
                          "(1, 1), (1, 2), (1, 3), (1, 4)")
                  .ok());
  TravelService service2(&db2, FriendGraph::Clique({"Jerry", "Kramer"}),
                         nullptr);

  TravelRequest jerry;
  jerry.user = "Jerry";
  jerry.flight_companions = {"Kramer"};
  jerry.dest = "Paris";
  jerry.adjacent_seat = true;
  auto h1 = service2.SubmitRequest(jerry);
  ASSERT_TRUE(h1.ok()) << h1.status();

  TravelRequest kramer = jerry;
  kramer.user = "Kramer";
  kramer.flight_companions = {"Jerry"};
  auto h2 = service2.SubmitRequest(kramer);
  ASSERT_TRUE(h2.ok()) << h2.status();

  ASSERT_TRUE(h1->Done());
  ASSERT_TRUE(h2->Done());
  const Tuple ja = h1->Answers()[0];
  const Tuple ka = h2->Answers()[0];
  EXPECT_EQ(ja.at(1), ka.at(1));  // same flight
  EXPECT_EQ(ka.at(2).int64_value(), ja.at(2).int64_value() + 1);
}

// The whole application tier — pair booking, flight+hotel coordination
// (a query with heads on two answer relations), and callback-driven
// expiry notification — in one flow on one engine.
TEST(TravelFlowTest, PairHotelAndExpiryFlowsEndToEnd) {
  Youtopia db;
  ASSERT_TRUE(SetupFigure1(&db).ok());
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE Hotels (hid INT NOT NULL, city TEXT NOT "
                    "NULL, day INT NOT NULL, price INT NOT NULL, rooms INT "
                    "NOT NULL);"
                    "INSERT INTO Hotels VALUES (501, 'Paris', 1, 120, 4);"
                    "CREATE TABLE HotelReservation (traveler TEXT NOT NULL, "
                    "hid INT NOT NULL);")
                  .ok());
  NotificationBus bus;
  TravelService service(
      &db,
      FriendGraph::Clique({"Jerry", "Kramer", "Elaine", "George", "Newman"}),
      &bus);

  auto kramer = service.BookFlightWithFriend("Kramer", "Jerry", "Paris");
  ASSERT_TRUE(kramer.ok()) << kramer.status();
  service.NotifyOnCompletion(*kramer, "Kramer");
  auto jerry = service.BookFlightWithFriend("Jerry", "Kramer", "Paris");
  ASSERT_TRUE(jerry.ok());
  EXPECT_TRUE(kramer->Done());
  EXPECT_TRUE(jerry->Done());
  ASSERT_EQ(bus.MessagesFor("Kramer").size(), 1u);
  EXPECT_NE(bus.MessagesFor("Kramer")[0].find("confirmed"),
            std::string::npos);

  auto elaine =
      service.BookFlightAndHotelWithFriend("Elaine", "George", "Paris");
  ASSERT_TRUE(elaine.ok()) << elaine.status();
  auto george =
      service.BookFlightAndHotelWithFriend("George", "Elaine", "Paris");
  ASSERT_TRUE(george.ok()) << george.status();
  EXPECT_TRUE(elaine->Done());
  EXPECT_TRUE(george->Done());
  EXPECT_EQ(elaine->Answers()[1].at(1), george->Answers()[1].at(1));

  // Expiry still reaches the notification bus through OnComplete.
  // Newman never books, so Jerry's request cannot be satisfied — not
  // even from stored answers.
  auto lonely = service.BookFlightWithFriend("Jerry", "Newman", "Paris");
  ASSERT_TRUE(lonely.ok());
  EXPECT_FALSE(lonely->Done());
  service.NotifyOnCompletion(*lonely, "Jerry");
  auto expired =
      db.coordinator().ExpireOlderThan(std::chrono::milliseconds(0));
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired.value(), 1u);
  ASSERT_EQ(bus.MessagesFor("Jerry").size(), 1u);
  EXPECT_NE(bus.MessagesFor("Jerry")[0].find("expired"), std::string::npos);
}

}  // namespace
}  // namespace youtopia::travel
