#ifndef YOUTOPIA_ENTANGLE_COORDINATOR_JOURNAL_H_
#define YOUTOPIA_ENTANGLE_COORDINATOR_JOURNAL_H_

#include <vector>

#include "common/status.h"
#include "entangle/entangled_query.h"

namespace youtopia {

class Transaction;

/// Durability hooks for coordinator activity (design decision #8). The
/// coordinator calls these at the three points where its pending state
/// changes; a WAL-backed implementation journals them so coordinations
/// survive a restart. All calls arrive with the coordinator mutex held,
/// so implementations must not call back into the coordinator.
///
/// The contract per call:
///   Submitted  — `query` was registered as pending (its id assigned).
///                A failure unwinds the registration: the query is
///                withdrawn and the submission returns the error, so a
///                query the log never saw is never left pending.
///   Resolved   — `id` left the pending pool without matching
///                (cancellation, expiry, failed-submission cleanup).
///                Failures are logged and otherwise ignored: the query
///                is already gone from the live pool either way, and at
///                replay an unresolved submit merely re-registers a
///                query the client already saw terminate.
///   Installed  — `group` matched and `txn` holds the not-yet-committed
///                installation writes (answer tuples + install-hook
///                effects, available as txn.redo_log()). Called
///                immediately BEFORE the transaction commits: on
///                failure the caller aborts the transaction and the
///                group stays pending, so a matched group is never
///                visible in storage without being in the journal —
///                match resolution and install writes are one record,
///                atomically durable or not at all.
class CoordinatorJournal {
 public:
  virtual ~CoordinatorJournal() = default;

  virtual Status Submitted(const EntangledQuery& query) = 0;
  virtual Status Resolved(QueryId id, const Status& outcome) = 0;
  virtual Status Installed(const std::vector<QueryId>& group,
                           const Transaction& txn) = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_ENTANGLE_COORDINATOR_JOURNAL_H_
