// A conflict-driven clause-learning SAT solver, built from scratch:
// two-watched-literal propagation, 1-UIP conflict analysis with clause
// learning, VSIDS-style activity ordering with phase saving, and Luby
// restarts.  It decides the ordering queries on reduction instances in
// milliseconds where the exhaustive feasible-execution engines take
// exponential time — the practical face of Theorems 1-4.
//
// The solver is *incremental*: a `CdclSolver` persists across calls,
// retaining learned clauses, variable activity and saved phases, and
// answers `solve_under_assumptions` queries MiniSat-style — assumption
// literals occupy the first decision levels, and when the formula is
// unsatisfiable *under* the assumptions the solver extracts a failed-
// assumption core (a subset of the assumptions that is already jointly
// inconsistent with the formula).  One solver instance therefore serves
// the N^2 pair queries of an ordering-relation matrix without N^2 cold
// solves (ordering/sat_oracle.hpp is the primary client).
#pragma once

#include <memory>
#include <vector>

#include "sat/formula.hpp"

namespace evord {

struct CdclOptions {
  /// Abort after this many conflicts (0 = unlimited); the result is then
  /// flagged unknown via `CdclResult::decided == false`.
  std::uint64_t max_conflicts = 0;
  double var_decay = 0.95;
  std::uint32_t luby_unit = 64;  ///< restart interval unit (in conflicts)
};

struct CdclResult {
  bool decided = true;  ///< false iff the conflict or time budget ran out
  /// Verdict + model + per-call counters.  `sat.stats` is filled on every
  /// exit path, including `decided == false` (conflicts / learned_clauses
  /// / restarts describe the aborted attempt).
  SatResult sat;
  /// Only when unsatisfiable *under assumptions*: a subset of the given
  /// assumption literals whose conjunction the formula already refutes.
  /// Empty when the formula is unsatisfiable on its own.
  std::vector<Lit> failed_assumptions;
};

/// Persistent incremental CDCL solver.
class CdclSolver {
 public:
  explicit CdclSolver(CdclOptions options = {});
  ~CdclSolver();
  CdclSolver(CdclSolver&&) noexcept;
  CdclSolver& operator=(CdclSolver&&) noexcept;

  /// Number of variables currently known (variables are 1..num_vars()).
  std::int32_t num_vars() const;
  /// Grows the variable universe to at least n.
  void ensure_vars(std::int32_t n);
  /// Allocates one fresh variable and returns its (positive) literal.
  Lit new_var();

  /// Adds a clause.  Legal between solve calls; the solver backtracks to
  /// the root level first.  An empty clause (or one falsified at the root
  /// level) makes the solver permanently unsatisfiable.
  void add_clause(const std::vector<Lit>& lits);
  /// Adds every clause of `formula` (and grows the variable universe).
  void add_formula(const CnfFormula& formula);

  /// True once the formula is known unsatisfiable without assumptions;
  /// every further solve call returns UNSAT immediately.
  bool inconsistent() const;

  /// Solves under the given assumption literals.  `max_conflicts`
  /// bounds this call only (0 = the constructor options' budget), and
  /// so does `time_budget_seconds` (0 = no time limit), polled at every
  /// conflict.  Learned clauses, activity and phases persist across
  /// calls; `result.sat.stats` counts this call alone (see
  /// cumulative_stats()).
  CdclResult solve_under_assumptions(const std::vector<Lit>& assumptions,
                                     std::uint64_t max_conflicts = 0,
                                     double time_budget_seconds = 0.0);
  CdclResult solve() { return solve_under_assumptions({}); }

  /// Counters accumulated over every call on this instance.
  const SolverStats& cumulative_stats() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot solve (a fresh CdclSolver under the hood).
CdclResult solve_cdcl(const CnfFormula& formula,
                      const CdclOptions& options = {});

/// Convenience wrapper asserting the budget was not hit.
SatResult solve(const CnfFormula& formula);

}  // namespace evord
