#include "sat/cdcl.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace evord {

namespace {

// Internal literal encoding: variable v (1-based) with sign s maps to
// 2*(v-1)+s where s=0 means positive.  Dense and array-friendly.
using ILit = std::uint32_t;

ILit to_ilit(Lit l) {
  return static_cast<ILit>(2 * (var_of(l) - 1) + (is_positive(l) ? 0 : 1));
}
ILit neg(ILit l) { return l ^ 1u; }
std::uint32_t ivar(ILit l) { return l >> 1; }
Lit from_ilit(ILit l) {
  const Lit v = static_cast<Lit>(ivar(l)) + 1;
  return (l & 1u) != 0 ? -v : v;
}

enum class Value : std::int8_t { kFalse = 0, kTrue = 1, kUnset = 2 };

Value lit_value(Value var_value, ILit l) {
  if (var_value == Value::kUnset) return Value::kUnset;
  const bool truth = (var_value == Value::kTrue) == ((l & 1u) == 0);
  return truth ? Value::kTrue : Value::kFalse;
}

constexpr std::uint32_t kNoReason = 0xffffffffu;

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
std::uint32_t luby(std::uint32_t i) {
  std::uint32_t k = 1;
  while ((1u << (k + 1)) <= i + 1) ++k;
  while ((1u << k) - 1 != i + 1) {
    i -= (1u << k) - 1;
    k = 1;
    while ((1u << (k + 1)) <= i + 1) ++k;
  }
  return 1u << (k - 1);
}

}  // namespace

class CdclSolver::Impl {
 public:
  explicit Impl(CdclOptions options) : options_(options) {}

  std::int32_t num_vars() const { return static_cast<std::int32_t>(num_vars_); }

  void ensure_vars(std::int32_t n) {
    if (n <= 0 || static_cast<std::uint32_t>(n) <= num_vars_) return;
    num_vars_ = static_cast<std::uint32_t>(n);
    values_.resize(num_vars_, Value::kUnset);
    levels_.resize(num_vars_, 0);
    reasons_.resize(num_vars_, kNoReason);
    activity_.resize(num_vars_, 0.0);
    phase_.resize(num_vars_, false);
    seen_.resize(num_vars_, 0);
    watches_.resize(2 * num_vars_);
  }

  Lit new_var() {
    ensure_vars(static_cast<std::int32_t>(num_vars_) + 1);
    return static_cast<Lit>(num_vars_);
  }

  void add_clause_external(const std::vector<Lit>& ext) {
    backtrack(0);
    std::int32_t max_var = 0;
    for (Lit l : ext) max_var = std::max(max_var, var_of(l));
    ensure_vars(max_var);

    std::vector<ILit> lits;
    lits.reserve(ext.size());
    for (Lit l : ext) lits.push_back(to_ilit(l));
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
      if (lits[i + 1] == neg(lits[i])) return;  // tautology
    }
    // Root-level simplification: drop falsified literals, skip satisfied
    // clauses.
    std::size_t keep = 0;
    for (ILit l : lits) {
      const Value v = lit_value(values_[ivar(l)], l);
      if (v == Value::kTrue) return;  // already satisfied forever
      if (v == Value::kFalse) continue;
      lits[keep++] = l;
    }
    lits.resize(keep);
    if (lits.empty()) {
      ok_ = false;
      return;
    }
    if (lits.size() == 1) {
      enqueue(lits[0], kNoReason);  // root-level unit; propagated lazily
      return;
    }
    add_clause(std::move(lits));
  }

  void add_formula(const CnfFormula& formula) {
    ensure_vars(formula.num_vars());
    for (const Clause& c : formula.clauses()) add_clause_external(c.lits);
  }

  bool inconsistent() const { return !ok_; }

  CdclResult solve(const std::vector<Lit>& ext_assumptions,
                   std::uint64_t max_conflicts, double time_budget_seconds) {
    const Deadline deadline(time_budget_seconds);
    stats_ = SolverStats{};
    CdclResult result;
    if (!ok_) {
      result.sat.satisfiable = false;
      return finish(result);
    }
    backtrack(0);

    std::int32_t max_var = 0;
    for (Lit l : ext_assumptions) max_var = std::max(max_var, var_of(l));
    ensure_vars(max_var);
    std::vector<ILit> assumptions;
    assumptions.reserve(ext_assumptions.size());
    for (Lit l : ext_assumptions) assumptions.push_back(to_ilit(l));

    const std::uint64_t budget =
        max_conflicts != 0 ? max_conflicts : options_.max_conflicts;
    std::uint32_t restart_index = 0;
    std::uint64_t conflicts_until_restart =
        static_cast<std::uint64_t>(luby(restart_index)) * options_.luby_unit;

    while (true) {
      const std::uint32_t conflict = propagate();
      if (conflict != kNoReason) {
        ++stats_.conflicts;
        if (decision_level() == 0) {
          ok_ = false;  // refuted without assumptions: permanent
          result.sat.satisfiable = false;
          return finish(result);
        }
        std::vector<ILit> learned;
        std::uint32_t backtrack_level = 0;
        analyze(conflict, learned, backtrack_level);
        backtrack(backtrack_level);
        ++stats_.learned_clauses;
        if (learned.size() == 1) {
          enqueue(learned[0], kNoReason);
        } else {
          const std::uint32_t id = add_clause(std::move(learned));
          enqueue(clauses_[id][0], id);
        }
        decay_activities();
        if ((budget != 0 && stats_.conflicts >= budget) ||
            deadline.expired()) {
          result.decided = false;
          return finish(result);
        }
        if (conflicts_until_restart > 0) --conflicts_until_restart;
        if (conflicts_until_restart == 0) {
          ++stats_.restarts;
          backtrack(0);
          ++restart_index;
          conflicts_until_restart =
              static_cast<std::uint64_t>(luby(restart_index)) *
              options_.luby_unit;
        }
      } else if (decision_level() < assumptions.size()) {
        // Assumption literals occupy the first decision levels
        // (MiniSat-style); a level is pushed even when the assumption is
        // already implied, so level i+1 always corresponds to
        // assumptions[i].
        const ILit a = assumptions[decision_level()];
        const Value v = lit_value(values_[ivar(a)], a);
        if (v == Value::kFalse) {
          analyze_final(a, result.failed_assumptions);
          result.sat.satisfiable = false;
          return finish(result);
        }
        level_starts_.push_back(static_cast<std::uint32_t>(trail_.size()));
        if (v == Value::kUnset) {
          ++stats_.decisions;
          enqueue(a, kNoReason);
        }
      } else {
        const std::uint32_t v = pick_branch_variable();
        if (v == num_vars_) {  // all assigned: SAT
          result.sat.satisfiable = true;
          result.sat.model.assign(num_vars_ + 1, false);
          for (std::uint32_t var = 0; var < num_vars_; ++var) {
            result.sat.model[var + 1] = values_[var] == Value::kTrue;
          }
          return finish(result);
        }
        ++stats_.decisions;
        level_starts_.push_back(static_cast<std::uint32_t>(trail_.size()));
        enqueue(phase_[v] ? 2 * v : 2 * v + 1, kNoReason);
      }
    }
  }

  const SolverStats& cumulative_stats() const { return cumulative_; }

 private:
  std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(level_starts_.size());
  }

  CdclResult& finish(CdclResult& result) {
    result.sat.stats = stats_;
    cumulative_.decisions += stats_.decisions;
    cumulative_.propagations += stats_.propagations;
    cumulative_.conflicts += stats_.conflicts;
    cumulative_.restarts += stats_.restarts;
    cumulative_.learned_clauses += stats_.learned_clauses;
    return result;
  }

  std::uint32_t add_clause(std::vector<ILit> lits) {
    const auto id = static_cast<std::uint32_t>(clauses_.size());
    watches_[lits[0]].push_back(id);
    watches_[lits[1]].push_back(id);
    clauses_.push_back(std::move(lits));
    return id;
  }

  void enqueue(ILit l, std::uint32_t reason) {
    const std::uint32_t v = ivar(l);
    values_[v] = (l & 1u) == 0 ? Value::kTrue : Value::kFalse;
    levels_[v] = decision_level();
    reasons_[v] = reason;
    trail_.push_back(l);
  }

  /// Two-watched-literal unit propagation.  Returns the index of a
  /// conflicting clause, or kNoReason.
  std::uint32_t propagate() {
    while (head_ < trail_.size()) {
      const ILit false_lit = neg(trail_[head_++]);
      std::vector<std::uint32_t>& watch_list = watches_[false_lit];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < watch_list.size(); ++i) {
        const std::uint32_t id = watch_list[i];
        std::vector<ILit>& c = clauses_[id];
        // Normalize: watched literals are c[0] and c[1].
        if (c[0] == false_lit) std::swap(c[0], c[1]);
        // c[1] == false_lit now.
        if (lit_value(values_[ivar(c[0])], c[0]) == Value::kTrue) {
          watch_list[keep++] = id;  // satisfied; keep watching
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.size(); ++k) {
          if (lit_value(values_[ivar(c[k])], c[k]) != Value::kFalse) {
            std::swap(c[1], c[k]);
            watches_[c[1]].push_back(id);
            moved = true;
            break;
          }
        }
        if (moved) continue;  // watch migrated; drop from this list
        // Clause is unit or conflicting on c[0].
        watch_list[keep++] = id;
        const Value v0 = lit_value(values_[ivar(c[0])], c[0]);
        if (v0 == Value::kFalse) {
          // Conflict: restore untouched tail of the watch list.
          for (std::size_t k = i + 1; k < watch_list.size(); ++k) {
            watch_list[keep++] = watch_list[k];
          }
          watch_list.resize(keep);
          return id;
        }
        if (v0 == Value::kUnset) {
          ++stats_.propagations;
          enqueue(c[0], id);
        }
      }
      watch_list.resize(keep);
    }
    return kNoReason;
  }

  void bump(std::uint32_t v) {
    activity_[v] += activity_increment_;
    if (activity_[v] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      activity_increment_ *= 1e-100;
    }
  }

  void decay_activities() { activity_increment_ /= options_.var_decay; }

  /// 1-UIP conflict analysis; produces the learned clause (asserting
  /// literal first) and the backtrack level.  Relies on the invariant
  /// that an implied variable's reason clause holds its literal at
  /// position 0 (enqueue always implies clauses_[reason][0]).
  void analyze(std::uint32_t conflict, std::vector<ILit>& learned,
               std::uint32_t& backtrack_level) {
    learned.assign(1, 0);  // placeholder for the asserting literal
    std::uint32_t counter = 0;
    bool have_pivot = false;
    ILit pivot = 0;
    std::size_t index = trail_.size();
    std::uint32_t reason = conflict;

    do {
      EVORD_DCHECK(reason != kNoReason, "analysis fell off a decision");
      const std::vector<ILit>& c = clauses_[reason];
      // Skip c[0] when resolving on a reason clause: it is the pivot.
      for (std::size_t j = have_pivot ? 1 : 0; j < c.size(); ++j) {
        const std::uint32_t v = ivar(c[j]);
        if (seen_[v] != 0 || levels_[v] == 0) continue;
        seen_[v] = 1;
        bump(v);
        if (levels_[v] == decision_level()) {
          ++counter;
        } else {
          learned.push_back(c[j]);
        }
      }
      // Walk back to the most recent seen literal on the trail.
      while (seen_[ivar(trail_[index - 1])] == 0) --index;
      pivot = trail_[--index];
      have_pivot = true;
      seen_[ivar(pivot)] = 0;
      reason = reasons_[ivar(pivot)];
      --counter;
    } while (counter > 0);
    learned[0] = neg(pivot);

    // Backtrack level: highest level among the non-asserting literals.
    backtrack_level = 0;
    std::size_t second_best = 1;
    for (std::size_t i = 1; i < learned.size(); ++i) {
      const std::uint32_t lvl = levels_[ivar(learned[i])];
      if (lvl > backtrack_level) {
        backtrack_level = lvl;
        second_best = i;
      }
    }
    if (learned.size() > 1) std::swap(learned[1], learned[second_best]);
    for (std::size_t i = 1; i < learned.size(); ++i) {
      seen_[ivar(learned[i])] = 0;
    }
  }

  /// Failed-assumption extraction: `p` is an assumption literal found
  /// false at its decision point, so every decision on the trail is an
  /// (earlier) assumption.  Walk the trail backwards from the top,
  /// expanding implied variables through their reason clauses; the
  /// decisions reached are exactly the assumptions that imply `not p`,
  /// and together with `p` form a core that the formula refutes.
  void analyze_final(ILit p, std::vector<Lit>& core) {
    core.clear();
    core.push_back(from_ilit(p));
    const std::size_t boundary =
        level_starts_.empty() ? trail_.size() : level_starts_[0];
    seen_[ivar(p)] = 1;
    for (std::size_t i = trail_.size(); i > boundary; --i) {
      const std::uint32_t v = ivar(trail_[i - 1]);
      if (seen_[v] == 0) continue;
      seen_[v] = 0;
      if (reasons_[v] == kNoReason) {
        core.push_back(from_ilit(trail_[i - 1]));
      } else {
        const std::vector<ILit>& c = clauses_[reasons_[v]];
        for (std::size_t j = 1; j < c.size(); ++j) {
          if (levels_[ivar(c[j])] > 0) seen_[ivar(c[j])] = 1;
        }
      }
    }
    seen_[ivar(p)] = 0;
  }

  void backtrack(std::uint32_t level) {
    if (decision_level() <= level) return;
    const std::uint32_t boundary = level_starts_[level];
    for (std::size_t i = trail_.size(); i > boundary; --i) {
      const std::uint32_t v = ivar(trail_[i - 1]);
      phase_[v] = values_[v] == Value::kTrue;  // phase saving
      values_[v] = Value::kUnset;
      reasons_[v] = kNoReason;
    }
    trail_.resize(boundary);
    head_ = boundary;
    level_starts_.resize(level);
  }

  /// Highest-activity unset variable (linear scan; fine at our scale).
  std::uint32_t pick_branch_variable() const {
    std::uint32_t best = num_vars_;
    double best_activity = -1.0;
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
      if (values_[v] == Value::kUnset && activity_[v] > best_activity) {
        best = v;
        best_activity = activity_[v];
      }
    }
    return best;
  }

  CdclOptions options_;
  std::uint32_t num_vars_ = 0;
  bool ok_ = true;

  std::vector<std::vector<ILit>> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;  // per literal

  std::vector<Value> values_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint32_t> reasons_;
  std::vector<double> activity_;
  std::vector<bool> phase_;
  std::vector<std::uint8_t> seen_;

  std::vector<ILit> trail_;
  std::size_t head_ = 0;
  std::vector<std::uint32_t> level_starts_;

  double activity_increment_ = 1.0;
  SolverStats stats_;       // per-call
  SolverStats cumulative_;  // across calls
};

CdclSolver::CdclSolver(CdclOptions options)
    : impl_(std::make_unique<Impl>(options)) {}
CdclSolver::~CdclSolver() = default;
CdclSolver::CdclSolver(CdclSolver&&) noexcept = default;
CdclSolver& CdclSolver::operator=(CdclSolver&&) noexcept = default;

std::int32_t CdclSolver::num_vars() const { return impl_->num_vars(); }
void CdclSolver::ensure_vars(std::int32_t n) { impl_->ensure_vars(n); }
Lit CdclSolver::new_var() { return impl_->new_var(); }
void CdclSolver::add_clause(const std::vector<Lit>& lits) {
  impl_->add_clause_external(lits);
}
void CdclSolver::add_formula(const CnfFormula& formula) {
  impl_->add_formula(formula);
}
bool CdclSolver::inconsistent() const { return impl_->inconsistent(); }
CdclResult CdclSolver::solve_under_assumptions(
    const std::vector<Lit>& assumptions, std::uint64_t max_conflicts,
    double time_budget_seconds) {
  return impl_->solve(assumptions, max_conflicts, time_budget_seconds);
}
const SolverStats& CdclSolver::cumulative_stats() const {
  return impl_->cumulative_stats();
}

CdclResult solve_cdcl(const CnfFormula& formula, const CdclOptions& options) {
  CdclSolver solver(options);
  solver.add_formula(formula);
  return solver.solve();
}

SatResult solve(const CnfFormula& formula) {
  CdclResult r = solve_cdcl(formula);
  EVORD_CHECK(r.decided, "CDCL conflict budget exhausted");
  return std::move(r.sat);
}

}  // namespace evord
