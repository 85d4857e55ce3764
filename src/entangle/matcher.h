#ifndef YOUTOPIA_ENTANGLE_MATCHER_H_
#define YOUTOPIA_ENTANGLE_MATCHER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "entangle/pending_pool.h"
#include "entangle/unification.h"
#include "storage/storage_engine.h"

namespace youtopia {

/// Tuning knobs for the matching algorithm. Joint satisfiability of
/// entangled queries is NP-hard in general (companion paper [2]), so the
/// search is budgeted; exceeding a budget leaves queries pending rather
/// than failing them.
struct MatchConfig {
  /// Maximum number of queries in one coordination group.
  size_t max_group_size = 32;
  /// Search-step budget per TryMatch call (obligation expansions).
  size_t max_steps = 200000;
  /// Candidate-binding budget in the grounding phase.
  size_t max_grounding_attempts = 100000;
  /// Seed for CHOOSE-1 nondeterminism (candidate shuffling).
  uint64_t rng_seed = 0xC0FFEEull;
  /// Design decision #1: restrict partner search to queries whose heads
  /// touch the constraint's relation. Disable only for ablation benches.
  bool use_signature_index = true;
  /// Allow constraints to be satisfied by answers already installed in
  /// the stored answer relation (the demo's browse-then-book path).
  bool allow_stored_answers = true;
  /// Grounding order heuristic: assign the class with the fewest
  /// candidates first (fail-first). Disable only for the ablation bench
  /// — the naive order takes evaluable classes as encountered.
  bool prefer_most_constrained = true;
};

/// A successfully matched coordination group with grounded answers.
struct MatchResult {
  /// Participating pending queries (the root is always present).
  std::vector<QueryId> group;
  /// For each query, the grounded tuple per head atom, parallel to
  /// EntangledQuery::heads.
  std::map<QueryId, std::vector<Tuple>> answers;
  /// Answer relations touched (for retriggering).
  std::vector<std::string> relations;
  /// Flat, de-duplicated list of (relation, tuple) pairs the group
  /// contributes — what installation writes and what install hooks
  /// (seat inventory, failure injection) inspect.
  std::vector<std::pair<std::string, Tuple>> installed;
  /// Number of constraints satisfied by already-stored answers.
  size_t from_stored = 0;
  /// Search effort actually spent.
  size_t steps = 0;
};

/// The coordination matching algorithm (paper §1: "the functionality of
/// matching and jointly executing entangled queries").
///
/// Two phases, per design decision #2 in DESIGN.md:
///  1. *Symbolic phase* — a backtracking search assembles a closed group:
///     starting from the root query, every constraint atom of every
///     member must be unified with (a) a head atom of a member, or
///     (b) an already-installed tuple of the stored answer relation, or
///     (c) a head atom of another pending query, which then joins the
///     group bringing its own constraints. Unification is pure symbol
///     manipulation — no database access except stored-answer probes.
///  2. *Grounding phase* — the merged variable classes are assigned
///     concrete values from their domain predicates (database queries),
///     most-constrained-first, with backtracking; all domain predicates
///     and comparisons are verified under the full grounding. CHOOSE 1
///     picks uniformly at random among valid candidates (seeded).
class Matcher {
 public:
  Matcher(StorageEngine* storage, MatchConfig config)
      : storage_(storage), config_(config), rng_(config.rng_seed) {}

  Matcher(const Matcher&) = delete;
  Matcher& operator=(const Matcher&) = delete;

  /// Attempts to build a coordination group containing `root`.
  /// Returns nullopt when no group exists within budget (the query
  /// stays pending). Errors indicate storage-level failures only.
  Result<std::optional<MatchResult>> TryMatch(QueryId root,
                                              const PendingView& pool);

  const MatchConfig& config() const { return config_; }

 private:
  /// One member of the group being assembled.
  struct Member {
    std::shared_ptr<const EntangledQuery> query;
    size_t var_base = 0;  ///< Offset of its vars in the global space.
  };

  /// Mutable search state, copied at branch points.
  struct GroupState {
    std::vector<Member> members;
    Substitution subst{0};
    /// Outstanding (member index, constraint index) obligations.
    std::vector<std::pair<size_t, size_t>> obligations;
    size_t from_stored = 0;
  };

  /// Search bookkeeping shared across a TryMatch call.
  struct SearchStats {
    size_t steps = 0;
    size_t grounding_attempts = 0;
    bool budget_exhausted = false;
  };

  /// Maps a local term of member `m` into global variable space.
  static Term Globalize(const Term& t, size_t var_base);
  static AnswerAtom GlobalizeAtom(const AnswerAtom& atom, size_t var_base);

  /// Appends `query` as a new member (remapping vars, queueing its
  /// constraints as obligations). Returns the member index.
  static size_t AddMember(GroupState* state,
                          std::shared_ptr<const EntangledQuery> query);

  /// DFS over obligations. On success fills `result`.
  Result<bool> Search(GroupState state, const PendingView& pool,
                      SearchStats* stats, MatchResult* result);

  /// Phase 2: grounds all variable classes and verifies the group.
  Result<bool> TryGround(const GroupState& state, SearchStats* stats,
                         MatchResult* result);

  /// Recursive class-assignment search.
  Result<bool> GroundClasses(const GroupState& state,
                             Substitution subst,
                             const std::vector<size_t>& class_roots,
                             SearchStats* stats, MatchResult* result);

  /// Evaluates a domain predicate of member `m` under `subst`.
  /// Returns nullopt when a correlated condition references an unbound
  /// class (caller defers the class).
  Result<std::optional<std::vector<Value>>> EvaluateDomain(
      const DomainPredicate& domain, size_t var_base,
      const Substitution& subst) const;

  /// Resolves a (global-space) term to a value under `subst`;
  /// nullopt if its class is unbound.
  static std::optional<Value> ResolveTerm(const Term& term,
                                          const Substitution& subst);

  /// Verifies all domain predicates and comparisons under a full
  /// grounding, then builds the MatchResult.
  Result<bool> FinalizeGrounding(const GroupState& state,
                                 const Substitution& subst,
                                 MatchResult* result);

  /// Stored tuples of `relation` that could match `constraint`: those
  /// holding each of its constant terms (StorageEngine::Probe).
  Result<std::vector<Tuple>> StoredCandidates(
      const AnswerAtom& constraint) const;

  StorageEngine* storage_;
  MatchConfig config_;
  Random rng_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_ENTANGLE_MATCHER_H_
