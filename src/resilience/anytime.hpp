// Resource-governed anytime queries.
//
// Theorems 1-4 say the exact ordering relations cannot be computed in
// polynomial time (assuming P != NP), so any exact query can exhaust a
// realistic resource budget.  This module makes that failure mode a
// first-class result instead of an error: a query climbs an escalating
// ladder of budgets (states / schedules / bytes / seconds) and, when
// even the largest rung is exhausted, degrades to a sound one-sided
// answer built from
//
//   * the truncated exact run's partial matrices — a budget-stopped
//     search visits a SUBSET of the feasible causal classes, so its
//     could-relations are under-approximate (every set bit is a proof)
//     and its must-relations over-approximate (every clear bit is a
//     refutation);
//   * the polynomial approximations of the paper's §4 — the combined
//     HMW + EGP + closest-common-ancestor fixpoint (approx/combined.hpp)
//     whose guaranteed orderings are a sound subset of exact causal MHB,
//     and the observed execution's vector clocks, which exhibit one
//     concrete feasible execution;
//   * partial-search witnesses: a stuck prefix found by a truncated
//     deadlock search is a valid deadlock witness regardless of
//     truncation, and a schedule witnessing a could-relation replays
//     validly no matter which budget found it.
//
// Every verdict carries full provenance: which engine answered, which
// budget tripped, and the resources spent getting there.
//
// The climb itself is a policy of service::AnalysisSession (the
// `anytime_*` methods), so its runs, bounds and SAT oracle are the
// session's one warm state per trace.  This header holds the verdict
// and ladder types, and AnytimeQuery, the standalone form: a private
// session over a copy of one trace, plus a fixed ladder.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ordering/exact.hpp"
#include "trace/trace.hpp"

namespace evord::service {
class AnalysisSession;
}  // namespace evord::service

namespace evord {

/// Three-valued answer of a budgeted query.  kProven / kRefuted are
/// definitive (backed by sound evidence); kUnknown means every rung
/// truncated and no one-sided bound decided the pair.
enum class VerdictState : std::uint8_t {
  kUnknown = 0,
  kProven = 1,
  kRefuted = 2,
};

const char* to_string(VerdictState state);

/// One rung of the escalation ladder.  Zero means "unlimited" for that
/// axis, exactly as in ExactOptions / SearchOptions.
struct QueryBudget {
  std::size_t max_states = 0;         ///< interleaving / deadlock engines
  std::uint64_t max_schedules = 0;    ///< causal / interval engines
  std::uint64_t max_memory_bytes = 0; ///< strict global byte budget
  double time_budget_seconds = 0.0;
  /// SAT-oracle portfolio rung: per-call conflict budget for the CDCL
  /// solver (maps to CdclOptions::max_conflicts) when the explicit
  /// engines truncate and the oracle is consulted.  0 = the oracle's
  /// own default budget, NOT unlimited.
  std::uint64_t max_conflicts = 0;
};

/// Order-sensitive 64-bit digest of a budget ladder; the service layer
/// stamps cached anytime verdicts with it so an `unknown` produced by
/// one ladder is recomputed (and upgraded in place) when a caller
/// presents a different — e.g. bigger-budget — ladder.
std::uint64_t ladder_digest(const std::vector<QueryBudget>& ladder);

/// Where a verdict came from and what it cost.
struct QueryProvenance {
  /// The engine whose evidence decided (or failed to decide) the query:
  /// "exact" (un-truncated run), "exact-partial" (one-sided bit of a
  /// truncated run), "combined" (sound guaranteed-orderings fixpoint),
  /// "vector-clock" (the observed execution as an existence proof),
  /// "guaranteed-races" (superset race detector), or "none".
  std::string engine = "none";
  /// True iff an exact run completed without truncation (the verdict is
  /// then the exact Table-1 answer, not a bound).
  bool exact_complete = false;
  /// True iff the final exact rung was truncated.
  bool truncated = false;
  /// Which budget tripped on the final exact rung (kNone if complete).
  search::StopReason stop_reason = search::StopReason::kNone;
  /// Ladder rungs attempted (1-based count; 0 if the ladder was empty).
  std::size_t rungs_tried = 0;
  std::uint64_t states_visited = 0;  ///< final rung's engine states
  std::uint64_t memo_bytes = 0;      ///< final rung's store footprint
  double seconds_spent = 0.0;        ///< wall clock across ALL rungs
  /// True iff the SAT-oracle portfolio was consulted and gave up by
  /// exhausting its per-call conflict budget (as opposed to not being
  /// consulted at all).  Repeated exhaustions on one trace are the
  /// signal the daemon's circuit breaker trips on — the oracle is
  /// burning its budget without deciding, so stop consulting it.
  bool oracle_exhausted = false;

  /// One line: engine, completeness, stop reason, resources.
  std::string summary() const;
};

/// A query answer that is honest about resource exhaustion.
struct BoundedVerdict {
  VerdictState state = VerdictState::kUnknown;
  QueryProvenance provenance;
  /// Supporting schedule when one exists: a witness schedule for proven
  /// could-queries, a counterexample schedule for refuted must-queries,
  /// a stuck prefix for a proven deadlock.  May be absent even for
  /// definitive verdicts (e.g. refutations need no schedule).
  std::optional<std::vector<EventId>> witness;

  bool proven() const { return state == VerdictState::kProven; }
  bool refuted() const { return state == VerdictState::kRefuted; }
  bool unknown() const { return state == VerdictState::kUnknown; }

  /// One line: verdict + provenance summary.
  std::string summary() const;
};

struct AnytimeOptions {
  /// Escalating budgets, tried in order; the first un-truncated rung
  /// answers exactly.  Empty = default_ladder().
  std::vector<QueryBudget> ladder;
  /// Base exact configuration (semantics knobs, reduction mode...).
  /// The per-rung budgets override max_states, max_schedules,
  /// max_memory_bytes and time_budget_seconds.
  ExactOptions exact;

  /// Three rungs escalating states/schedules/bytes by ~16x each, no
  /// time budgets (deterministic across machines).
  static std::vector<QueryBudget> default_ladder();
};

/// A ladder for a caller with a wall-clock deadline: the default
/// ladder's deterministic caps with each rung additionally time-boxed
/// to a slice of `deadline_seconds` (1/8, 1/4, 5/8 — early rungs stay
/// cheap so the big rung inherits most of the remaining time; the sum
/// leaves no rung past the deadline).  Each slice is floored at 1 ms so
/// a tight deadline still lets every rung make SOME progress instead of
/// tripping at state 0.  `deadline_seconds` <= 0 means "no deadline"
/// and returns default_ladder() unchanged.  The daemon maps a client's
/// deadline header through this, so an expiring deadline degrades to a
/// sound BoundedVerdict instead of a timeout error.
std::vector<QueryBudget> deadline_ladder(double deadline_seconds);

/// Runs ordering / race / deadlock queries under one fixed budget
/// ladder, over a private AnalysisSession on a copy of `trace`: each
/// method forwards to the session's climb, so repeated queries share its
/// runs, bounds and oracle.  When every explicit rung truncated and the
/// bounds leave an ordering pair open, the climb consults the session's
/// SAT oracle (ordering/sat_oracle.hpp) before answering kUnknown; its
/// verdicts are definitive (engine "sat-oracle") and a conflict-budget
/// exhaustion still degrades to kUnknown.
class AnytimeQuery {
 public:
  explicit AnytimeQuery(const Trace& trace, AnytimeOptions options = {});

  // ----- ordering queries (Table 1) ------------------------------------
  BoundedVerdict must_have_happened_before(
      EventId a, EventId b, Semantics semantics = Semantics::kCausal);
  BoundedVerdict could_have_happened_before(
      EventId a, EventId b, Semantics semantics = Semantics::kCausal);
  BoundedVerdict could_have_been_concurrent(EventId a, EventId b);

  // ----- applications ---------------------------------------------------
  /// Does the conflicting pair (a, b) race?  Proven by a (possibly
  /// truncated) exact detector hit; refuted when even the superset
  /// guaranteed detector reports no race.
  BoundedVerdict race_between(EventId a, EventId b);
  /// Could any feasible schedule prefix wedge?  A stuck witness from a
  /// truncated search still proves; refutation needs exhaustion.
  BoundedVerdict can_deadlock();

 private:
  std::shared_ptr<service::AnalysisSession> session_;
  std::vector<QueryBudget> ladder_;
};

}  // namespace evord
