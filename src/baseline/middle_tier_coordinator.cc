#include "baseline/middle_tier_coordinator.h"

#include <algorithm>
#include <thread>

namespace youtopia::baseline {

namespace {
constexpr const char* kProposals = "CoordProposals";
// Proposal states.
constexpr int64_t kOpen = 0;
constexpr int64_t kAccepted = 1;
}  // namespace

Status MiddleTierCoordinator::Setup() {
  if (db_->storage().catalog().HasTable(kProposals)) return Status::OK();
  return client_.ExecuteScript(
      "CREATE TABLE CoordProposals ("
      "  proposer TEXT NOT NULL,"
      "  partner TEXT NOT NULL,"
      "  dest TEXT NOT NULL,"
      "  fno INT NOT NULL,"
      "  state INT NOT NULL"
      ")");
}

Result<MiddleTierCoordinator::Ticket> MiddleTierCoordinator::TryRequest(
    const std::string& user, const std::string& partner,
    const std::string& dest) {
  TxnManager& txns = db_->txn_manager();
  auto txn = txns.Begin();
  // Abort-and-propagate helper: every early return must roll back.
  auto fail = [&](Status status) -> Status {
    (void)txns.Abort(txn.get());
    return status;
  };

  // X on the proposal table before the scan: every path below writes it,
  // and two reciprocal requests that both scanned under S would deadlock
  // on the S->X upgrade until the lock timeout broke it.
  Status locked = txns.lock_manager().Acquire(txn->id(), kProposals,
                                              LockMode::kExclusive);
  if (!locked.ok()) return fail(locked);

  // Look for a reciprocal open proposal: partner proposed to user.
  auto proposals = txns.Scan(txn.get(), kProposals);
  if (!proposals.ok()) return fail(proposals.status());
  for (const auto& [rid, row] : *proposals) {
    if (row.at(0).string_value() != partner) continue;
    if (row.at(1).string_value() != user) continue;
    if (row.at(2).string_value() != dest) continue;
    if (row.at(4).int64_value() != kOpen) continue;

    // Found: choose a flight and book both travelers atomically.
    auto flights = txns.Scan(txn.get(), "Flights");
    if (!flights.ok()) return fail(flights.status());
    std::optional<int64_t> chosen;
    for (const auto& [frid, flight] : *flights) {
      // Works with both the full travel schema and the Figure-1 schema:
      // dest is the column named "dest".
      auto info = db_->storage().catalog().GetTable("Flights");
      if (!info.ok()) return fail(info.status());
      auto dest_col = info->schema.ColumnIndex("dest");
      if (!dest_col.ok()) return fail(dest_col.status());
      if (flight.at(dest_col.value()).string_value() == dest) {
        chosen = flight.at(0).int64_value();
        break;
      }
    }
    if (!chosen.has_value()) {
      return fail(Status::NotFound("no flight to " + dest));
    }
    Tuple updated = row;
    updated.at(3) = Value::Int64(*chosen);
    updated.at(4) = Value::Int64(kAccepted);
    Status status = txns.Update(txn.get(), kProposals, rid, updated);
    if (!status.ok()) return fail(status);
    auto r1 = txns.Insert(txn.get(), "Reservation",
                          Tuple({Value::String(user), Value::Int64(*chosen)}));
    if (!r1.ok()) return fail(r1.status());
    auto r2 = txns.Insert(
        txn.get(), "Reservation",
        Tuple({Value::String(partner), Value::Int64(*chosen)}));
    if (!r2.ok()) return fail(r2.status());
    YOUTOPIA_RETURN_IF_ERROR(txns.Commit(txn.get()));

    Ticket ticket;
    ticket.completed = true;
    ticket.fno = *chosen;
    return ticket;
  }

  // No reciprocal proposal: file our own and wait to be found.
  auto rid = txns.Insert(
      txn.get(), kProposals,
      Tuple({Value::String(user), Value::String(partner), Value::String(dest),
             Value::Int64(0), Value::Int64(kOpen)}));
  if (!rid.ok()) return fail(rid.status());
  YOUTOPIA_RETURN_IF_ERROR(txns.Commit(txn.get()));

  Ticket ticket;
  ticket.pid = rid.value();
  return ticket;
}

Result<MiddleTierCoordinator::Ticket> MiddleTierCoordinator::RequestSameFlight(
    const std::string& user, const std::string& partner,
    const std::string& dest) {
  // Lock-conflict retry loop with capped exponential backoff — the
  // kind of code the paper argues the middle tier should not have to
  // write (and, done naively, the kind that hammers the lock manager).
  std::chrono::milliseconds pause(1);
  for (int attempt = 0; attempt < 32; ++attempt) {
    auto ticket = TryRequest(user, partner, dest);
    if (ticket.ok()) return ticket;
    if (ticket.status().code() != StatusCode::kTimedOut) {
      return ticket.status();
    }
    std::this_thread::sleep_for(pause);
    pause = std::min(pause * 2, std::chrono::milliseconds(32));
  }
  return Status::TimedOut("could not acquire coordination locks");
}

Result<std::optional<int64_t>> MiddleTierCoordinator::Poll(uint64_t pid) {
  auto row = db_->storage().Get(kProposals, pid);
  if (!row.ok()) return row.status();
  if (row->at(4).int64_value() == kAccepted) {
    return std::optional<int64_t>(row->at(3).int64_value());
  }
  return std::optional<int64_t>{};
}

Result<int64_t> MiddleTierCoordinator::WaitForMatch(
    uint64_t pid, std::chrono::milliseconds timeout,
    std::chrono::milliseconds poll_interval) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    auto result = Poll(pid);
    if (!result.ok()) return result.status();
    if (result->has_value()) return result->value();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::TimedOut("no partner arrived for proposal " +
                              std::to_string(pid));
    }
    std::this_thread::sleep_for(poll_interval);
  }
}

}  // namespace youtopia::baseline
