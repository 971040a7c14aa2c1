// The SAT-backed ordering oracle: answers single-pair must/could queries
// by CNF encoding (sat/encode_trace.hpp) plus one persistent incremental
// CDCL solver (sat/cdcl.hpp) — the polynomial-infrastructure escape hatch
// past the enumeration wall of Theorems 1-4.  Where the explicit engines
// walk an exponential schedule or class space, the oracle decides a pair
// in one assumption-based solver call, reusing learned clauses, VSIDS
// activity and phase saving across the N^2 queries of a relation matrix.
//
// Query primitive: P(a, b) == "some feasible complete schedule runs a
// strictly before b" == SAT(encoding AND o(a, b)).  Every satisfying
// model is decoded to a schedule and replay-validated through
// TraceStepper before it is trusted; validated schedules seed an n x n
// pair memo (about n^2/2 answers per model) and, for causal/interval
// semantics, a bounded pool of witnessed causal classes.
//
//   * Interleaving semantics is complete relative to the solver:
//     CHB(a,b) == P(a,b), MHB(a,b) == not P(b,a), MCW/CCW empty,
//     MOW/COW total.
//   * Causal/interval semantics combine P with sound class bounds:
//     R_always (closure of the edges present in EVERY class: static
//     order plus F3 data edges when they are causal), R_sup (closure of
//     a superset of the edges of ANY class: static order, every V->P /
//     Post->Wait pairing candidate, data edges both ways), witnessed
//     classes (causal closures of validated schedules), and the
//     data-pair shortcut (conflicting or dependent events are causally
//     ordered in every class, in schedule direction).  Queries those
//     bounds cannot settle stay kUnknown — never unsound.
//
// One oracle instance serves all three semantics of one trace with ONE
// solver build (the CNF depends only on respect_dependences).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ordering/relations.hpp"
#include "sat/formula.hpp"
#include "trace/trace.hpp"

namespace evord {

class CdclSolver;
class TraceCnf;

enum class OracleVerdict : std::uint8_t { kUnknown, kProven, kRefuted };

const char* to_string(OracleVerdict verdict);

struct SatOracleOptions {
  /// Enforce F3 in the encoding (must match the explicit engine's
  /// ExactOptions::respect_dependences to agree with it).
  bool respect_dependences = true;
  /// Data edges count as causal ordering (ExactOptions::causal_data_edges).
  bool causal_data_edges = true;
  /// Default per-call conflict budget (0 = unlimited); exceeding it makes
  /// the call — not the oracle — answer kUnknown.
  std::uint64_t max_conflicts = 1u << 20;
  /// Decline traces with more events (the encoding is O(n^3) clauses).
  std::size_t max_events = 160;
  /// Cap on stored witness classes / schedules (memo rows stay exact
  /// beyond it; only witness attachment and class evidence saturate).
  std::size_t max_witness_folds = 64;
};

struct SatOracleStats {
  std::uint64_t queries = 0;
  std::uint64_t decided = 0;
  std::uint64_t solver_builds = 0;  ///< cold encodes (1 per trace)
  std::uint64_t sat_calls = 0;
  std::uint64_t sat_models = 0;
  std::uint64_t sat_unsat = 0;
  std::uint64_t sat_undecided = 0;  ///< conflict or time budget exhausted
  std::uint64_t witnesses_replayed = 0;
  std::uint64_t witness_replay_failures = 0;
  std::uint64_t pair_memo_hits = 0;
  std::size_t encode_vars = 0;
  std::size_t encode_clauses = 0;
  SolverStats solver;  ///< cumulative CDCL counters across all calls
};

class SatOracle {
 public:
  explicit SatOracle(const Trace& trace, SatOracleOptions options = {});
  ~SatOracle();

  /// False when the trace exceeds max_events; every query then returns
  /// kUnknown.
  bool available() const { return available_; }

  /// Is F(P) non-empty?  (Usually answered from the observed schedule
  /// without any solver call.)
  OracleVerdict feasible();

  /// Decides "a REL b" under `semantics`; kUnknown is always sound.
  OracleVerdict query(RelationKind kind, EventId a, EventId b,
                      Semantics semantics);

  /// Schedule backing the most recent decided verdict when one exists:
  /// for could-proofs a feasible schedule exhibiting the property, for
  /// must-refutations a counterexample schedule.  Replay-validated.
  const std::optional<std::vector<EventId>>& last_witness() const {
    return last_witness_;
  }

  /// Per-call budget override: conflicts (0 = back to the options
  /// default) and seconds (0 = no time limit).  A call that runs out of
  /// either answers kUnknown and counts in sat_undecided.
  void set_call_budget(std::uint64_t max_conflicts,
                       double time_budget_seconds = 0.0) {
    conflict_override_ = max_conflicts;
    time_override_ = time_budget_seconds;
  }

  SatOracleStats stats() const;

 private:
  enum class Tri : std::uint8_t { kUnknown, kYes, kNo };

  struct Fold {  ///< one validated schedule and its causal class
    std::vector<EventId> schedule;
    std::vector<std::size_t> position;
    std::vector<DynamicBitset> descendants;  ///< causal closure rows
  };

  void build_solver();
  bool fold_schedule(const std::vector<EventId>& schedule);
  Tri precedes(EventId a, EventId b);
  OracleVerdict interleaving_query(RelationKind kind, EventId a, EventId b);
  OracleVerdict causal_query(RelationKind kind, EventId a, EventId b,
                             bool interval);
  OracleVerdict done(OracleVerdict v);
  void attach_witness(RelationKind kind, Semantics semantics, EventId a,
                      EventId b, OracleVerdict verdict);

  const Trace* trace_;
  SatOracleOptions options_;
  std::size_t n_ = 0;
  bool available_ = false;
  std::uint64_t conflict_override_ = 0;
  double time_override_ = 0.0;

  std::unique_ptr<TraceCnf> encoder_;
  std::unique_ptr<CdclSolver> solver_;

  Tri feasible_ = Tri::kUnknown;
  RelationMatrix p_yes_;   ///< P(a,b) known true
  RelationMatrix p_no_;    ///< P(a,b) known false
  RelationMatrix r_always_;  ///< causal in every class
  RelationMatrix r_sup_;     ///< superset of causal in any class
  RelationMatrix data_pair_;  ///< causally comparable in every class
  RelationMatrix seen_desc_;      ///< witnessed class with a ->C b
  RelationMatrix seen_incomp_;    ///< witnessed class with a, b incomparable
  RelationMatrix seen_not_desc_;  ///< witnessed class without a ->C b

  std::vector<Fold> folds_;
  std::optional<std::vector<EventId>> last_witness_;

  mutable SatOracleStats stats_;
};

}  // namespace evord
