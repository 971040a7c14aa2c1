#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sat/cdcl.hpp"
#include "sat/dpll.hpp"
#include "sat/formula.hpp"
#include "sat/gen.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace evord {
namespace {

// ---------------------------------------------------------------- formula

TEST(Formula, AddClauseGrowsVarCount) {
  CnfFormula f;
  f.add_clause({1, -5});
  EXPECT_EQ(f.num_vars(), 5);
  EXPECT_EQ(f.num_clauses(), 1u);
  EXPECT_THROW(f.add_clause({0}), CheckError);
}

TEST(Formula, Evaluation) {
  CnfFormula f;
  f.add_clause({1, 2});
  f.add_clause({-1, 2});
  Assignment a(3, false);
  a[2] = true;
  EXPECT_TRUE(f.satisfied_by(a));
  a[2] = false;
  EXPECT_FALSE(f.satisfied_by(a));
  a[1] = true;
  EXPECT_TRUE(f.clause_satisfied_by(0, a));
  EXPECT_FALSE(f.clause_satisfied_by(1, a));
}

TEST(Formula, IsKcnf) {
  CnfFormula f;
  f.add_clause({1, 2, 3});
  EXPECT_TRUE(f.is_kcnf(3));
  f.add_clause({1, 2});
  EXPECT_FALSE(f.is_kcnf(3));
}

TEST(Formula, DimacsRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const CnfFormula f = random_3sat(6, 12, rng);
    const CnfFormula g = parse_dimacs_string(f.to_dimacs());
    EXPECT_EQ(f, g);
  }
}

TEST(Formula, DimacsParsesCommentsAndWhitespace) {
  const CnfFormula f = parse_dimacs_string(
      "c a comment\n\np cnf 3 2\n1 -2 0\n  c not a comment line? no: c-prefixed\n"
      "3 0\n");
  EXPECT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.clause(0).lits, (std::vector<Lit>{1, -2}));
}

TEST(Formula, DimacsErrors) {
  EXPECT_THROW(parse_dimacs_string("1 2 0\n"), CheckError);  // no p line
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n3 0\n"), CheckError);
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n1 2\n"), CheckError);
  EXPECT_THROW(parse_dimacs_string("p cnf 2 5\n1 0\n"), CheckError);
  EXPECT_THROW(parse_dimacs_string("p dnf 2 1\n1 0\n"), CheckError);
}

// ------------------------------------------------------------ brute force

TEST(BruteForce, TinyCases) {
  CnfFormula f;
  f.add_clause({1});
  f.add_clause({-1});
  EXPECT_FALSE(solve_brute_force(f).satisfiable);
  EXPECT_EQ(count_models(f), 0u);

  CnfFormula g;
  g.add_clause({1, 2});
  EXPECT_TRUE(solve_brute_force(g).satisfiable);
  EXPECT_EQ(count_models(g), 3u);
}

TEST(BruteForce, EmptyFormulaIsSat) {
  CnfFormula f;
  EXPECT_TRUE(solve_brute_force(f).satisfiable);
}

// ----------------------------------------------------------------- solvers

class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, DpllAndCdclMatchBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  for (int i = 0; i < 20; ++i) {
    const auto n = static_cast<std::int32_t>(3 + rng.below(6));
    const std::size_t m = 1 + rng.below(static_cast<std::uint64_t>(5 * n));
    const CnfFormula f = random_3sat(n, m, rng);
    const bool truth = solve_brute_force(f).satisfiable;

    const SatResult dpll = solve_dpll(f);
    EXPECT_EQ(dpll.satisfiable, truth) << f.to_dimacs();
    if (dpll.satisfiable) {
      EXPECT_TRUE(f.satisfied_by(dpll.model));
    }

    const SatResult cdcl = solve(f);
    EXPECT_EQ(cdcl.satisfiable, truth) << f.to_dimacs();
    if (cdcl.satisfiable) {
      EXPECT_TRUE(f.satisfied_by(cdcl.model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverAgreement, ::testing::Range(0, 10));

TEST(Cdcl, PigeonholeUnsat) {
  for (std::int32_t holes = 1; holes <= 5; ++holes) {
    const CnfFormula f = pigeonhole(holes);
    EXPECT_FALSE(solve(f).satisfiable) << "PHP(" << holes + 1 << ")";
  }
}

TEST(Cdcl, PlantedInstancesAreSat) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const CnfFormula f = planted_3sat(20, 80, rng);
    const SatResult r = solve(f);
    EXPECT_TRUE(r.satisfiable);
    EXPECT_TRUE(f.satisfied_by(r.model));
  }
}

TEST(Cdcl, TriviallySatFamily) {
  Rng rng(6);
  const CnfFormula f = trivially_sat(10, 50, rng);
  EXPECT_TRUE(solve(f).satisfiable);
}

TEST(Cdcl, EmptyClauseIsUnsat) {
  CnfFormula f;
  f.add_clause({1});
  CnfFormula g = f;
  g.add_clause(std::vector<Lit>{});
  EXPECT_FALSE(solve(g).satisfiable);
}

TEST(Cdcl, TautologicalClausesIgnored) {
  CnfFormula f;
  f.add_clause({1, -1, 2});
  f.add_clause({-2});
  const SatResult r = solve(f);
  EXPECT_TRUE(r.satisfiable);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

TEST(Cdcl, UnitClausesPropagate) {
  CnfFormula f;
  f.add_clause({1});
  f.add_clause({-1, 2});
  f.add_clause({-2, 3});
  const SatResult r = solve(f);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.model[1]);
  EXPECT_TRUE(r.model[2]);
  EXPECT_TRUE(r.model[3]);
}

TEST(Cdcl, ContradictoryUnits) {
  CnfFormula f;
  f.add_clause({1});
  f.add_clause({-1});
  EXPECT_FALSE(solve(f).satisfiable);
}

TEST(Cdcl, ConflictBudget) {
  const CnfFormula f = pigeonhole(7);  // hard enough to need conflicts
  CdclOptions options;
  options.max_conflicts = 1;
  const CdclResult r = solve_cdcl(f, options);
  EXPECT_FALSE(r.decided);
}

TEST(CdclSolver, TimeBudgetBoundsTheCall) {
  // PHP(12, 11) takes far longer than 20 ms to refute; the time box,
  // polled at every conflict, ends the call undecided instead.
  CdclSolver s;
  s.add_formula(pigeonhole(11));
  const Timer timer;
  const CdclResult r = s.solve_under_assumptions({}, 0, 0.020);
  EXPECT_LT(timer.seconds(), 2.0);
  EXPECT_FALSE(r.decided);
  EXPECT_GE(r.sat.stats.conflicts, 1u);
  EXPECT_FALSE(s.inconsistent());
}

TEST(Cdcl, StatsPopulated) {
  Rng rng(8);
  const CnfFormula f = random_3sat(12, 50, rng);
  const CdclResult r = solve_cdcl(f);
  EXPECT_TRUE(r.decided);
  EXPECT_GT(r.sat.stats.decisions + r.sat.stats.propagations, 0u);
}

TEST(Cdcl, LargerRandomInstancesAgainstDpll) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    const CnfFormula f = random_3sat(15, 63, rng);  // near ratio 4.2
    EXPECT_EQ(solve(f).satisfiable, solve_dpll(f).satisfiable);
  }
}

// ---------------------------------------------------- incremental solver

TEST(CdclSolver, SatAndUnsatUnderAssumptions) {
  CdclSolver s;
  s.add_clause({1, 2});
  s.add_clause({-1, 3});
  CdclResult r = s.solve_under_assumptions({1});
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(r.sat.satisfiable);
  EXPECT_TRUE(r.sat.model[1]);
  EXPECT_TRUE(r.sat.model[3]);

  // x1 and !x3 contradict (!x1 | x3): UNSAT *under assumptions* only.
  r = s.solve_under_assumptions({1, -3});
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.sat.satisfiable);
  EXPECT_FALSE(r.failed_assumptions.empty());
  EXPECT_FALSE(s.inconsistent());

  // The same instance answers SAT again once the assumptions are gone.
  r = s.solve();
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.sat.satisfiable);
}

TEST(CdclSolver, AssumptionFalsifiedAtRootIsTheCore) {
  CdclSolver s;
  s.add_clause({1});
  const CdclResult r = s.solve_under_assumptions({-1});
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.sat.satisfiable);
  ASSERT_EQ(r.failed_assumptions.size(), 1u);
  EXPECT_EQ(r.failed_assumptions[0], -1);
  EXPECT_FALSE(s.inconsistent());
}

TEST(CdclSolver, ModelHonorsAssumptions) {
  CdclSolver s;
  s.ensure_vars(4);
  s.add_clause({1, 2, 3, 4});
  const CdclResult r = s.solve_under_assumptions({-1, -2, -3});
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(r.sat.satisfiable);
  EXPECT_FALSE(r.sat.model[1]);
  EXPECT_FALSE(r.sat.model[2]);
  EXPECT_FALSE(r.sat.model[3]);
  EXPECT_TRUE(r.sat.model[4]);
}

TEST(CdclSolver, FailedAssumptionCoresAreValid) {
  // On random satisfiable instances with random assumption sets: a SAT
  // answer must honor every assumption; an UNSAT answer must return a
  // core that is (a) a subset of the assumptions and (b) genuinely
  // inconsistent with the formula when re-added as unit clauses.
  Rng rng(41);
  int unsat_seen = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const CnfFormula f = random_3sat(10, 38, rng);
    if (!solve_dpll(f).satisfiable) continue;
    CdclSolver s;
    s.add_formula(f);
    std::vector<Lit> assumptions;
    for (std::int32_t v = 1; v <= f.num_vars(); ++v) {
      if (rng.below(2) == 0) {
        assumptions.push_back(rng.below(2) == 0 ? v : -v);
      }
    }
    const CdclResult r = s.solve_under_assumptions(assumptions);
    ASSERT_TRUE(r.decided);
    if (r.sat.satisfiable) {
      EXPECT_TRUE(f.satisfied_by(r.sat.model));
      for (const Lit a : assumptions) {
        EXPECT_EQ(r.sat.model[var_of(a)], a > 0) << "assumption " << a;
      }
      continue;
    }
    ++unsat_seen;
    CnfFormula g = f;
    for (const Lit l : r.failed_assumptions) {
      EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                assumptions.end())
          << "core literal " << l << " is not an assumption";
      g.add_clause({l});
    }
    EXPECT_FALSE(solve_dpll(g).satisfiable) << "core does not refute";
  }
  EXPECT_GT(unsat_seen, 0) << "sweep never exercised the UNSAT path";
}

TEST(CdclSolver, WarmPhasesSolveAgainWithoutConflicts) {
  Rng rng(77);
  const CnfFormula f = planted_3sat(40, 168, rng);
  CdclSolver s;
  s.add_formula(f);
  const CdclResult first = s.solve();
  ASSERT_TRUE(first.decided);
  ASSERT_TRUE(first.sat.satisfiable);
  // Saved phases replay the model just found (every implied literal is
  // model-consistent), so the warm re-solve pays zero conflicts.
  const CdclResult second = s.solve();
  ASSERT_TRUE(second.sat.satisfiable);
  EXPECT_EQ(second.sat.stats.conflicts, 0u);
  // Per-call stats stay per-call; the instance accumulates.
  EXPECT_EQ(s.cumulative_stats().conflicts,
            first.sat.stats.conflicts + second.sat.stats.conflicts);
  EXPECT_EQ(s.cumulative_stats().decisions,
            first.sat.stats.decisions + second.sat.stats.decisions);
}

TEST(CdclSolver, IncrementalBlockingClausesEnumerateAllModels) {
  // Three unconstrained variables; blocking each model in turn must
  // enumerate exactly 2^3 of them before the instance goes UNSAT.
  CdclSolver s;
  s.ensure_vars(3);
  int models = 0;
  for (;;) {
    const CdclResult r = s.solve();
    ASSERT_TRUE(r.decided);
    if (!r.sat.satisfiable) break;
    ++models;
    ASSERT_LE(models, 8);
    std::vector<Lit> block;
    for (std::int32_t v = 1; v <= 3; ++v) {
      block.push_back(r.sat.model[v] ? -v : v);
    }
    s.add_clause(block);
  }
  EXPECT_EQ(models, 8);
  EXPECT_TRUE(s.inconsistent());
}

TEST(CdclSolver, BudgetExhaustionKeepsCountersAndLearnedClauses) {
  CdclSolver s;
  s.add_formula(pigeonhole(5));
  const CdclResult bounded = s.solve_under_assumptions({}, 1);
  EXPECT_FALSE(bounded.decided);
  EXPECT_GE(bounded.sat.stats.conflicts, 1u);
  EXPECT_GE(bounded.sat.stats.learned_clauses, 1u);
  // The aborted call's learned clauses persist: the unbounded re-solve
  // still refutes, and the instance is then permanently inconsistent.
  const CdclResult full = s.solve();
  ASSERT_TRUE(full.decided);
  EXPECT_FALSE(full.sat.satisfiable);
  EXPECT_TRUE(full.failed_assumptions.empty());
  EXPECT_TRUE(s.inconsistent());
}

TEST(CdclSolver, NewVarAndEnsureVars) {
  CdclSolver s;
  EXPECT_EQ(s.num_vars(), 0);
  const Lit a = s.new_var();
  EXPECT_EQ(a, 1);
  s.ensure_vars(5);
  EXPECT_EQ(s.num_vars(), 5);
  const Lit b = s.new_var();
  EXPECT_EQ(b, 6);
  s.add_clause({a, -b});
  const CdclResult r = s.solve_under_assumptions({-a});
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(r.sat.satisfiable);
  EXPECT_FALSE(r.sat.model[6]);
}

// --------------------------------------------------------------- generators

TEST(Gen, RandomKsatShape) {
  Rng rng(10);
  const CnfFormula f = random_ksat(10, 30, 3, rng);
  EXPECT_EQ(f.num_clauses(), 30u);
  EXPECT_TRUE(f.is_kcnf(3));
  for (const Clause& c : f.clauses()) {
    std::set<std::int32_t> vars;
    for (Lit l : c.lits) vars.insert(var_of(l));
    EXPECT_EQ(vars.size(), 3u) << "variables must be distinct";
  }
}

TEST(Gen, PigeonholeShape) {
  const CnfFormula f = pigeonhole(3);
  EXPECT_EQ(f.num_vars(), 12);
  EXPECT_EQ(f.num_clauses(), 4u + 3u * 6u);
}

TEST(Gen, AllSmall3CnfEnumerates) {
  // 3 vars: C(3,3)=1 variable triple * 8 sign patterns = 8 clauses in the
  // universe; 1-clause formulas: 8; 2-clause multisets: C(8+1,2)=36.
  const auto one = all_small_3cnf(3, 1);
  EXPECT_EQ(one.size(), 8u);
  const auto two = all_small_3cnf(3, 2);
  EXPECT_EQ(two.size(), 36u);
  for (const CnfFormula& f : two) EXPECT_TRUE(f.is_kcnf(3));
}

TEST(Gen, AllSmall3CnfLimit) {
  const auto some = all_small_3cnf(4, 3, 10);
  EXPECT_EQ(some.size(), 10u);
}

TEST(Gen, Deterministic) {
  Rng a(99);
  Rng b(99);
  EXPECT_EQ(random_3sat(8, 20, a), random_3sat(8, 20, b));
}

}  // namespace
}  // namespace evord
