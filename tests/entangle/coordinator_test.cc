#include "entangle/coordinator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "entangle/normalizer.h"
#include "sql/parser.h"

namespace youtopia {
namespace {

using std::chrono::milliseconds;

class CoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(storage_
                    .CreateTable("Flights",
                                 Schema({{"fno", DataType::kInt64, false},
                                         {"dest", DataType::kString, false}}))
                    .ok());
    for (auto [fno, dest] : std::vector<std::pair<int64_t, const char*>>{
             {122, "Paris"}, {123, "Paris"}, {136, "Rome"}}) {
      ASSERT_TRUE(storage_
                      .Insert("Flights", Tuple({Value::Int64(fno),
                                                Value::String(dest)}))
                      .ok());
    }
    ASSERT_TRUE(storage_
                    .CreateTable("Reservation",
                                 Schema({{"traveler", DataType::kString, false},
                                         {"fno", DataType::kInt64, false}}))
                    .ok());
    txns_ = std::make_unique<TxnManager>(&storage_);
    coordinator_ =
        std::make_unique<Coordinator>(&storage_, txns_.get(),
                                      CoordinatorConfig{});
  }

  EntangledQuery Parse(const std::string& sql, const std::string& owner) {
    auto stmt = Parser::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    auto q = Normalizer::Normalize(
        static_cast<const SelectStatement&>(*stmt.value()), 0, owner, sql);
    EXPECT_TRUE(q.ok()) << q.status();
    return q.TakeValue();
  }

  static std::string PairQuery(const std::string& self,
                               const std::string& other) {
    return "SELECT '" + self + "', fno INTO ANSWER Reservation WHERE fno IN "
           "(SELECT fno FROM Flights WHERE dest='Paris') AND ('" + other +
           "', fno) IN ANSWER Reservation CHOOSE 1";
  }

  /// Pairwise query whose head goes to `head_relation` and whose
  /// partner constraint reads `constraint_relation`.
  static std::string CrossQuery(const std::string& head_relation,
                                const std::string& constraint_relation,
                                const std::string& self,
                                const std::string& other,
                                const std::string& dest = "Paris") {
    return "SELECT '" + self + "', fno INTO ANSWER " + head_relation +
           " WHERE fno IN (SELECT fno FROM Flights WHERE dest='" + dest +
           "') AND ('" + other + "', fno) IN ANSWER " + constraint_relation +
           " CHOOSE 1";
  }

  /// One flight to each of City0..City{n-1}.
  void AddCityFlights(int n) {
    for (int d = 0; d < n; ++d) {
      ASSERT_TRUE(
          storage_
              .Insert("Flights",
                      Tuple({Value::Int64(1000 + d),
                             Value::String("City" + std::to_string(d))}))
              .ok());
    }
  }

  Result<EntangledHandle> Submit(const std::string& sql,
                                 const std::string& owner) {
    return coordinator_->Submit(Parse(sql, owner));
  }

  StorageEngine storage_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<Coordinator> coordinator_;
};

TEST_F(CoordinatorTest, PairCoordination) {
  auto kramer =
      coordinator_->Submit(Parse(PairQuery("Kramer", "Jerry"), "Kramer"));
  ASSERT_TRUE(kramer.ok()) << kramer.status();
  EXPECT_FALSE(kramer->Done());
  EXPECT_EQ(coordinator_->pending_count(), 1u);
  EXPECT_EQ(kramer->Wait(milliseconds(10)).code(), StatusCode::kTimedOut);

  auto jerry =
      coordinator_->Submit(Parse(PairQuery("Jerry", "Kramer"), "Jerry"));
  ASSERT_TRUE(jerry.ok());
  EXPECT_TRUE(kramer->Done());
  EXPECT_TRUE(jerry->Done());
  EXPECT_TRUE(kramer->Wait(milliseconds(0)).ok());
  EXPECT_TRUE(jerry->Wait(milliseconds(0)).ok());
  EXPECT_EQ(coordinator_->pending_count(), 0u);

  ASSERT_EQ(kramer->Answers().size(), 1u);
  ASSERT_EQ(jerry->Answers().size(), 1u);
  EXPECT_EQ(kramer->Answers()[0].at(1), jerry->Answers()[0].at(1));

  // Answers are durably stored in the answer relation.
  EXPECT_EQ(storage_.TableSize("Reservation").value(), 2u);

  auto stats = coordinator_->stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.matched_queries, 2u);
  EXPECT_EQ(stats.matched_groups, 1u);
}

TEST_F(CoordinatorTest, IdsAreSequential) {
  auto h1 = coordinator_->Submit(Parse(PairQuery("A", "B"), "A"));
  auto h2 = coordinator_->Submit(Parse(PairQuery("C", "D"), "C"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_LT(h1->id(), h2->id());
}

TEST_F(CoordinatorTest, CancelPendingQuery) {
  auto handle = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(coordinator_->Cancel(handle->id()).ok());
  EXPECT_TRUE(handle->Done());
  EXPECT_EQ(handle->Wait(milliseconds(0)).code(), StatusCode::kAborted);
  EXPECT_EQ(coordinator_->pending_count(), 0u);
  EXPECT_EQ(coordinator_->Cancel(handle->id()).code(), StatusCode::kNotFound);
  EXPECT_EQ(coordinator_->stats().cancelled, 1u);

  // The cancelled query can no longer partner.
  auto other = coordinator_->Submit(Parse(PairQuery("J", "K"), "J"));
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->Done());
}

TEST_F(CoordinatorTest, PendingIntrospection) {
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("K", "J"), "Kramer")).ok());
  auto pending = coordinator_->Pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].owner, "Kramer");
  EXPECT_NE(pending[0].sql.find("INTO ANSWER Reservation"),
            std::string::npos);
  EXPECT_NE(pending[0].ir.find("head:"), std::string::npos);
}

TEST_F(CoordinatorTest, InstallHookAbortRollsBackAndKeepsPending) {
  coordinator_->SetInstallHook(
      [](Transaction*, TxnManager*, const MatchResult&) {
        return Status::Aborted("injected failure");
      });
  auto h1 = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  auto h2 = coordinator_->Submit(Parse(PairQuery("J", "K"), "J"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  // Match found but install failed: nothing visible, both still pending.
  EXPECT_FALSE(h1->Done());
  EXPECT_FALSE(h2->Done());
  EXPECT_EQ(coordinator_->pending_count(), 2u);
  EXPECT_EQ(storage_.TableSize("Reservation").value(), 0u);
  EXPECT_GE(coordinator_->stats().failed_installs, 1u);

  // Removing the hook and retriggering completes the pair.
  coordinator_->SetInstallHook(nullptr);
  auto satisfied = coordinator_->RetriggerAll();
  ASSERT_TRUE(satisfied.ok()) << satisfied.status();
  EXPECT_EQ(satisfied.value(), 2u);
  EXPECT_TRUE(h1->Done());
  EXPECT_TRUE(h2->Done());
}

TEST_F(CoordinatorTest, InstallHookSuccessRuns) {
  size_t hook_calls = 0;
  coordinator_->SetInstallHook(
      [&hook_calls](Transaction*, TxnManager*, const MatchResult& match) {
        ++hook_calls;
        EXPECT_EQ(match.installed.size(), 2u);
        return Status::OK();
      });
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("K", "J"), "K")).ok());
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("J", "K"), "J")).ok());
  EXPECT_EQ(hook_calls, 1u);
}

TEST_F(CoordinatorTest, RetriggerAfterDataChange) {
  // No flight to Berlin yet: the pair cannot ground.
  auto h1 = coordinator_->Submit(Parse(
      "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') AND "
      "('J', fno) IN ANSWER Reservation CHOOSE 1", "K"));
  auto h2 = coordinator_->Submit(Parse(
      "SELECT 'J', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') AND "
      "('K', fno) IN ANSWER Reservation CHOOSE 1", "J"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(coordinator_->pending_count(), 2u);

  // A Berlin flight appears; retriggering matches the waiting pair —
  // "waits for an opportunity to retry" (paper §1).
  ASSERT_TRUE(storage_
                  .Insert("Flights", Tuple({Value::Int64(200),
                                            Value::String("Berlin")}))
                  .ok());
  auto satisfied = coordinator_->RetriggerAll();
  ASSERT_TRUE(satisfied.ok());
  EXPECT_EQ(satisfied.value(), 2u);
  EXPECT_TRUE(h1->Done());
  EXPECT_EQ(h1->Answers()[0].at(1).int64_value(), 200);
}

TEST_F(CoordinatorTest, CascadeRetriggerOnInstall) {
  // C constrains on B's reservation; B pairs with A. When A completes
  // the (A, B) pair, C's constraint is satisfiable from storage.
  auto c = coordinator_->Submit(Parse(
      "SELECT 'C', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Paris') AND "
      "('B', fno) IN ANSWER Reservation CHOOSE 1", "C"));
  ASSERT_TRUE(c.ok());
  auto b = coordinator_->Submit(Parse(PairQuery("B", "A"), "B"));
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(c->Done());
  auto a = coordinator_->Submit(Parse(PairQuery("A", "B"), "A"));
  ASSERT_TRUE(a.ok());

  // The A/B install retriggers C (possibly matched in the same group or
  // from stored answers in the cascade).
  EXPECT_TRUE(a->Done());
  EXPECT_TRUE(b->Done());
  EXPECT_TRUE(c->Done());
  EXPECT_EQ(c->Answers()[0].at(1), b->Answers()[0].at(1));
  EXPECT_EQ(coordinator_->pending_count(), 0u);
}

TEST_F(CoordinatorTest, AutoCreatesAnswerRelation) {
  ASSERT_TRUE(coordinator_
                  ->Submit(Parse(
                      "SELECT 'Solo', fno INTO ANSWER BrandNew WHERE fno IN "
                      "(SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1",
                      "Solo"))
                  .ok());
  EXPECT_TRUE(storage_.catalog().HasTable("BrandNew"));
  EXPECT_EQ(storage_.TableSize("BrandNew").value(), 1u);
}

TEST_F(CoordinatorTest, AutoCreateDisabledFails) {
  CoordinatorConfig config;
  config.auto_create_answer_tables = false;
  Coordinator strict(&storage_, txns_.get(), config);
  auto handle = strict.Submit(Parse(
      "SELECT 'Solo', fno INTO ANSWER Missing WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1", "Solo"));
  // The match is found but installation fails; query stays pending.
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(handle->Done());
  EXPECT_GE(strict.stats().failed_installs, 1u);
}

TEST_F(CoordinatorTest, DuplicateTupleSharedBetweenQueries) {
  // Two identical direct bookings produce one stored tuple (set
  // semantics of the answer relation).
  const std::string sql =
      "SELECT 'Solo', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1";
  ASSERT_TRUE(coordinator_->Submit(Parse(sql, "Solo")).ok());
  ASSERT_TRUE(coordinator_->Submit(Parse(sql, "Solo")).ok());
  EXPECT_EQ(storage_.TableSize("Reservation").value(), 1u);
}

TEST_F(CoordinatorTest, StatsAccumulateMatchEffort) {
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("K", "J"), "K")).ok());
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("J", "K"), "J")).ok());
  auto stats = coordinator_->stats();
  EXPECT_GE(stats.match_calls, 2u);
  EXPECT_GT(stats.search_steps_total, 0u);
}

TEST_F(CoordinatorTest, RetriggerDependentsOfTargetsDomainTable) {
  auto pending = coordinator_->Submit(Parse(
      "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
      "(SELECT fno FROM Flights WHERE dest='Berlin') CHOOSE 1", "K"));
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->Done());

  // Retriggering an unrelated table does nothing.
  auto unrelated = coordinator_->RetriggerDependentsOf("Hotels");
  ASSERT_TRUE(unrelated.ok());
  EXPECT_EQ(unrelated.value(), 0u);

  ASSERT_TRUE(storage_
                  .Insert("Flights", Tuple({Value::Int64(300),
                                            Value::String("Berlin")}))
                  .ok());
  auto satisfied = coordinator_->RetriggerDependentsOf("Flights");
  ASSERT_TRUE(satisfied.ok());
  EXPECT_EQ(satisfied.value(), 1u);
  EXPECT_TRUE(pending->Done());
}

TEST_F(CoordinatorTest, ExpireOlderThanWithdrawsStaleQueries) {
  auto stale = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(stale.ok());
  // Nothing has aged past an hour.
  auto none = coordinator_->ExpireOlderThan(std::chrono::hours(1));
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), 0u);
  EXPECT_EQ(coordinator_->pending_count(), 1u);

  // Zero max-age expires everything pending.
  auto expired = coordinator_->ExpireOlderThan(milliseconds(0));
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired.value(), 1u);
  EXPECT_TRUE(stale->Done());
  EXPECT_EQ(stale->Wait(milliseconds(0)).code(), StatusCode::kTimedOut);
  EXPECT_EQ(coordinator_->pending_count(), 0u);

  // Expired queries no longer partner.
  auto partner = coordinator_->Submit(Parse(PairQuery("J", "K"), "J"));
  ASSERT_TRUE(partner.ok());
  EXPECT_FALSE(partner->Done());
}

TEST_F(CoordinatorTest, CompletedAtTracksOutcome) {
  auto kramer = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(kramer.ok());
  EXPECT_FALSE(kramer->CompletedAt().has_value());
  const auto before = std::chrono::steady_clock::now();
  auto jerry = coordinator_->Submit(Parse(PairQuery("J", "K"), "J"));
  ASSERT_TRUE(jerry.ok());
  const auto after = std::chrono::steady_clock::now();
  auto completed = kramer->CompletedAt();
  ASSERT_TRUE(completed.has_value());
  EXPECT_GE(*completed, before);
  EXPECT_LE(*completed, after);

  // Cancellation also stamps completion.
  auto lone = coordinator_->Submit(Parse(PairQuery("X", "Y"), "X"));
  ASSERT_TRUE(lone.ok());
  ASSERT_TRUE(coordinator_->Cancel(lone->id()).ok());
  EXPECT_TRUE(lone->CompletedAt().has_value());
}

TEST_F(CoordinatorTest, PendingReportsAge) {
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("K", "J"), "K")).ok());
  auto pending = coordinator_->Pending();
  ASSERT_EQ(pending.size(), 1u);
  // Age is small but strictly tracked (measured from submission).
  EXPECT_LT(pending[0].age_micros, 10'000'000u);
}

TEST_F(CoordinatorTest, SubmitRejectsHeadlessQuery) {
  EntangledQuery empty;
  EXPECT_EQ(coordinator_->Submit(std::move(empty)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, OutcomeIsEmptyWhilePending) {
  auto handle = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(handle.ok());
  // A pending query has no outcome — in particular not a placeholder
  // TimedOut that a caller could mistake for a terminal status.
  EXPECT_FALSE(handle->Outcome().has_value());

  auto partner = coordinator_->Submit(Parse(PairQuery("J", "K"), "J"));
  ASSERT_TRUE(partner.ok());
  ASSERT_TRUE(handle->Outcome().has_value());
  EXPECT_TRUE(handle->Outcome()->ok());
}

TEST_F(CoordinatorTest, OnCompleteObservesSatisfactionWithoutWait) {
  auto kramer = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(kramer.ok());

  size_t fired = 0;
  Status seen_outcome;
  size_t seen_answers = 0;
  kramer->OnComplete([&](const EntangledHandle& done) {
    ++fired;
    seen_outcome = done.Outcome().value_or(Status::Internal("no outcome"));
    seen_answers = done.Answers().size();
  });
  EXPECT_EQ(fired, 0u);

  // Jerry's submission closes the group; Kramer's callback fires from
  // inside that call — Kramer never blocks in Wait.
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("J", "K"), "J")).ok());
  EXPECT_EQ(fired, 1u);
  EXPECT_TRUE(seen_outcome.ok());
  EXPECT_EQ(seen_answers, 1u);

  // Later activity never re-fires a delivered callback.
  ASSERT_TRUE(coordinator_->RetriggerAll().ok());
  EXPECT_EQ(fired, 1u);

  auto stats = coordinator_->stats();
  EXPECT_EQ(stats.callbacks_registered, 1u);
  EXPECT_EQ(stats.callbacks_fired, 1u);
}

TEST_F(CoordinatorTest, OnCompleteAfterCompletionFiresImmediately) {
  auto kramer = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("J", "K"), "J")).ok());
  ASSERT_TRUE(kramer.ok());
  ASSERT_TRUE(kramer->Done());

  size_t fired = 0;
  kramer->OnComplete([&](const EntangledHandle& done) {
    ++fired;
    EXPECT_TRUE(done.Done());
  });
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(coordinator_->stats().callbacks_fired, 1u);
}

TEST_F(CoordinatorTest, OnCompleteFiresOnCancel) {
  auto handle = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(handle.ok());
  size_t fired = 0;
  StatusCode seen = StatusCode::kOk;
  handle->OnComplete([&](const EntangledHandle& done) {
    ++fired;
    seen = done.Outcome().value_or(Status::OK()).code();
  });
  ASSERT_TRUE(coordinator_->Cancel(handle->id()).ok());
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(seen, StatusCode::kAborted);
}

TEST_F(CoordinatorTest, OnCompleteFiresOnExpire) {
  auto handle = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(handle.ok());
  size_t fired = 0;
  StatusCode seen = StatusCode::kOk;
  handle->OnComplete([&](const EntangledHandle& done) {
    ++fired;
    seen = done.Outcome().value_or(Status::OK()).code();
  });
  auto expired = coordinator_->ExpireOlderThan(milliseconds(0));
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired.value(), 1u);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(seen, StatusCode::kTimedOut);
}

TEST_F(CoordinatorTest, EveryRegistrationFiresExactlyOnce) {
  auto handle = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(handle.ok());
  size_t first = 0, second = 0;
  handle->OnComplete([&](const EntangledHandle&) { ++first; });
  handle->OnComplete([&](const EntangledHandle&) { ++second; });
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("J", "K"), "J")).ok());
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(coordinator_->stats().callbacks_fired, 2u);
}

TEST_F(CoordinatorTest, CallbackMayReenterCoordinator) {
  auto kramer = coordinator_->Submit(Parse(PairQuery("K", "J"), "K"));
  ASSERT_TRUE(kramer.ok());
  // The callback submits a follow-up query: callbacks run outside the
  // coordinator lock, so re-entry must not deadlock.
  bool followup_done = false;
  kramer->OnComplete([&](const EntangledHandle&) {
    auto followup = coordinator_->Submit(Parse(
        "SELECT 'K', fno INTO ANSWER Reservation WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest='Rome') CHOOSE 1", "K"));
    ASSERT_TRUE(followup.ok());
    followup_done = followup->Done();
  });
  ASSERT_TRUE(coordinator_->Submit(Parse(PairQuery("J", "K"), "J")).ok());
  EXPECT_TRUE(followup_done);
}

TEST_F(CoordinatorTest, SubmitAllClosesGroupInOneRound) {
  const std::vector<std::string> group = {"A", "B", "C"};
  std::vector<EntangledQuery> queries;
  for (size_t i = 0; i < group.size(); ++i) {
    std::string sql = "SELECT '" + group[i] +
                      "', fno INTO ANSWER Reservation WHERE fno IN "
                      "(SELECT fno FROM Flights WHERE dest='Paris')";
    for (size_t j = 0; j < group.size(); ++j) {
      if (i == j) continue;
      sql += " AND ('" + group[j] + "', fno) IN ANSWER Reservation";
    }
    sql += " CHOOSE 1";
    queries.push_back(Parse(sql, group[i]));
  }

  auto handles = coordinator_->SubmitAll(std::move(queries));
  ASSERT_TRUE(handles.ok()) << handles.status();
  ASSERT_EQ(handles->size(), 3u);
  for (const auto& handle : *handles) {
    EXPECT_TRUE(handle.Done());
    ASSERT_TRUE(handle.Outcome().has_value());
    EXPECT_TRUE(handle.Outcome()->ok());
  }
  // Everyone flies on the same flight.
  EXPECT_EQ((*handles)[0].Answers()[0].at(1), (*handles)[1].Answers()[0].at(1));
  EXPECT_EQ((*handles)[1].Answers()[0].at(1), (*handles)[2].Answers()[0].at(1));

  auto stats = coordinator_->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 3u);
  EXPECT_EQ(stats.matched_groups, 1u);
  EXPECT_EQ(stats.matched_queries, 3u);
  // The single matching round: the first root sees the whole batch in
  // the pool and closes the group on its first TryMatch — sequential
  // submission of the same group costs one match call per member.
  EXPECT_EQ(stats.match_calls, 1u);
}

TEST_F(CoordinatorTest, SubmitAllLeavesUnmatchablePending) {
  std::vector<EntangledQuery> queries;
  queries.push_back(Parse(PairQuery("K", "J"), "K"));
  queries.push_back(Parse(PairQuery("J", "K"), "J"));
  queries.push_back(Parse(PairQuery("Lonely", "Ghost"), "Lonely"));
  auto handles = coordinator_->SubmitAll(std::move(queries));
  ASSERT_TRUE(handles.ok());
  EXPECT_TRUE((*handles)[0].Done());
  EXPECT_TRUE((*handles)[1].Done());
  EXPECT_FALSE((*handles)[2].Done());
  EXPECT_EQ(coordinator_->pending_count(), 1u);
}

TEST_F(CoordinatorTest, SubmitAllRejectsInvalidBatchAtomically) {
  std::vector<EntangledQuery> queries;
  queries.push_back(Parse(PairQuery("K", "J"), "K"));
  queries.emplace_back();  // headless
  auto handles = coordinator_->SubmitAll(std::move(queries));
  EXPECT_EQ(handles.status().code(), StatusCode::kInvalidArgument);
  // Nothing from the batch was registered.
  EXPECT_EQ(coordinator_->pending_count(), 0u);
  EXPECT_EQ(coordinator_->stats().submitted, 0u);
  EXPECT_EQ(coordinator_->stats().batches, 0u);
}

TEST_F(CoordinatorTest, SubmitAllEmptyBatchIsTrivial) {
  auto handles = coordinator_->SubmitAll({});
  ASSERT_TRUE(handles.ok());
  EXPECT_TRUE(handles->empty());
  EXPECT_EQ(coordinator_->stats().batches, 1u);
  EXPECT_EQ(coordinator_->stats().batched_queries, 0u);
}

// The paper's flight+hotel pair: each member has two heads on two
// answer relations and two partner constraints. Submitted together, the
// whole group closes in the batch's single matching round.
TEST_F(CoordinatorTest, SubmitAllFlightHotelPairClosesInOneRound) {
  ASSERT_TRUE(storage_
                  .CreateTable("Hotels",
                               Schema({{"hid", DataType::kInt64, false},
                                       {"city", DataType::kString, false}}))
                  .ok());
  ASSERT_TRUE(storage_
                  .Insert("Hotels", Tuple({Value::Int64(7),
                                           Value::String("Paris")}))
                  .ok());
  auto flight_hotel = [](const std::string& self, const std::string& other) {
    return "SELECT '" + self + "', fno INTO ANSWER Reservation, '" + self +
           "', hid INTO ANSWER HotelReservation WHERE fno IN (SELECT fno "
           "FROM Flights WHERE dest='Paris') AND hid IN (SELECT hid FROM "
           "Hotels WHERE city='Paris') AND ('" + other +
           "', fno) IN ANSWER Reservation AND ('" + other +
           "', hid) IN ANSWER HotelReservation CHOOSE 1";
  };
  std::vector<EntangledQuery> batch;
  batch.push_back(Parse(flight_hotel("Kramer", "Jerry"), "Kramer"));
  batch.push_back(Parse(flight_hotel("Jerry", "Kramer"), "Jerry"));
  auto handles = coordinator_->SubmitAll(std::move(batch));
  ASSERT_TRUE(handles.ok()) << handles.status();
  ASSERT_EQ(handles->size(), 2u);
  for (const auto& handle : *handles) {
    ASSERT_TRUE(handle.Done());
    EXPECT_TRUE(handle.Outcome()->ok());
    ASSERT_EQ(handle.Answers().size(), 2u);
  }
  const auto kramer = (*handles)[0].Answers();
  const auto jerry = (*handles)[1].Answers();
  EXPECT_EQ(kramer[0].at(1), jerry[0].at(1));  // same flight
  EXPECT_EQ(kramer[1].at(1), Value::Int64(7));  // the only Paris hotel
  EXPECT_EQ(jerry[1].at(1), Value::Int64(7));

  const CoordinatorStats stats = coordinator_->stats();
  EXPECT_EQ(stats.shard_rounds, 1u);
  EXPECT_EQ(stats.global_rounds, 0u);
  EXPECT_EQ(stats.match_calls, 1u);
  EXPECT_EQ(stats.matched_groups, 1u);
  EXPECT_EQ(coordinator_->pending_count(), 0u);
}

// Relation-name case must not affect matching: the pool indexes and the
// matcher both normalize with ToLowerAscii.
TEST_F(CoordinatorTest, MixedCaseRelationsMatchAcrossSpellings) {
  auto a = Submit(CrossQuery("Reservation", "RESERVATION", "A", "B"), "A");
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_FALSE(a->Done());
  auto b = Submit(CrossQuery("reservation", "Reservation", "B", "A"), "B");
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(a->Done());
  EXPECT_TRUE(b->Done());
  EXPECT_EQ(a->Answers()[0].at(1), b->Answers()[0].at(1));
}

// Concurrent stress: threads mix single-relation pairs, cross-relation
// pairs and submit-then-cancel lonely queries, all racing each other.
// Every pair must close by the time its second half's Submit returns,
// and the coordinator must end drained with consistent counters. Run
// under TSan to check the lock protocol.
TEST_F(CoordinatorTest, ConcurrentMixedWorkloadStress) {
  constexpr int kThreads = 8;
  constexpr int kPairsPerThread = 24;
  constexpr int kNumDests = 64;
  AddCityFlights(kNumDests);
  const std::vector<std::string> rels = {"RelA", "RelB", "RelC", "RelD"};

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> cancelled{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int p = 0; p < kPairsPerThread; ++p) {
        const int unit = t * kPairsPerThread + p;
        const std::string dest = "City" + std::to_string(unit % kNumDests);
        const std::string a = "A" + std::to_string(unit);
        const std::string b = "B" + std::to_string(unit);
        const std::string& rel = rels[t % rels.size()];
        const std::string& rel2 =
            p % 6 == 5 ? rels[(t + 1) % rels.size()] : rel;
        auto first = Submit(CrossQuery(rel, rel2, a, b, dest), a);
        auto second = Submit(CrossQuery(rel2, rel, b, a, dest), b);
        if (!first.ok() || !second.ok() || !first->Done() ||
            !second->Done() || !first->Outcome()->ok()) {
          mismatches.fetch_add(1);
        }
        if (p % 8 == 7) {
          auto lonely = Submit(
              CrossQuery(rel, rel, "L" + std::to_string(unit), "nobody",
                         dest),
              a);
          if (lonely.ok() && coordinator_->Cancel(lonely->id()).ok()) {
            cancelled.fetch_add(1);
          } else {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(coordinator_->pending_count(), 0u);
  const CoordinatorStats stats = coordinator_->stats();
  const size_t pairs = kThreads * kPairsPerThread;
  EXPECT_EQ(stats.submitted, pairs * 2 + cancelled.load());
  EXPECT_EQ(stats.matched_queries, pairs * 2);
  EXPECT_EQ(stats.matched_groups, pairs);
  EXPECT_EQ(stats.cancelled, cancelled.load());
  // One matching round per Submit; nothing retriggered.
  EXPECT_EQ(stats.shard_rounds, stats.submitted);
  EXPECT_EQ(stats.global_rounds, 0u);
}

// An install hook that writes one shared row (the travel inventory
// pattern decrements Flights seats) must see exactly one decrement per
// installed group while concurrent submitters race: installs run under
// the coordinator mutex, so they never 2PL-conflict with each other.
TEST_F(CoordinatorTest, InstallHookOnSharedTableSurvivesConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPairsPerThread = 12;
  AddCityFlights(8);
  ASSERT_TRUE(storage_
                  .CreateTable("Inventory",
                               Schema({{"remaining", DataType::kInt64,
                                        false}}))
                  .ok());
  auto rid = storage_.Insert("Inventory", Tuple({Value::Int64(100000)}));
  ASSERT_TRUE(rid.ok());
  coordinator_->SetInstallHook(
      [rid = rid.value()](Transaction* txn, TxnManager* txns,
                          const MatchResult&) -> Status {
        auto row = txns->Get(txn, "Inventory", rid);
        if (!row.ok()) return row.status();
        Tuple updated = row.TakeValue();
        updated.at(0) = Value::Int64(updated.at(0).int64_value() - 1);
        return txns->Update(txn, "Inventory", rid, updated);
      });

  const std::vector<std::string> rels = {"RelA", "RelB", "RelC", "RelD"};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string& rel = rels[t % rels.size()];
      for (int p = 0; p < kPairsPerThread; ++p) {
        const int unit = t * kPairsPerThread + p;
        const std::string dest = "City" + std::to_string(unit % 8);
        const std::string a = "HA" + std::to_string(unit);
        const std::string b = "HB" + std::to_string(unit);
        auto first = Submit(CrossQuery(rel, rel, a, b, dest), a);
        auto second = Submit(CrossQuery(rel, rel, b, a, dest), b);
        if (!first.ok() || !second.ok() || !first->Done() ||
            !second->Done()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(coordinator_->pending_count(), 0u);
  const CoordinatorStats stats = coordinator_->stats();
  EXPECT_EQ(stats.failed_installs, 0u);
  EXPECT_EQ(stats.matched_groups,
            static_cast<size_t>(kThreads * kPairsPerThread));
  // Exactly one decrement per installed group survived the races.
  auto row = storage_.Get("Inventory", rid.value());
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->at(0).int64_value(), 100000 - kThreads * kPairsPerThread);
}

}  // namespace
}  // namespace youtopia
