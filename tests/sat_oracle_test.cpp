// The SAT-backed ordering oracle, tested three ways: the CNF encoding's
// models decode to replayable schedules (and its semaphore / event-var
// enabling rules are exact, not relaxations); the oracle's verdicts agree
// with the exact engine on every relation, pair and semantics of
// randomized workloads; and the Theorem 1-4 reduction traces get the
// paper's answers straight from the oracle.
#include <gtest/gtest.h>

#include <vector>

#include "feasible/stepper.hpp"
#include "ordering/exact.hpp"
#include "ordering/sat_oracle.hpp"
#include "reductions/reduction.hpp"
#include "sat/cdcl.hpp"
#include "sat/encode_trace.hpp"
#include "trace/builder.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

bool replays(const Trace& trace, const std::vector<EventId>& schedule,
             bool respect_dependences) {
  if (schedule.size() != trace.num_events()) return false;
  StepperOptions options;
  options.respect_dependences = respect_dependences;
  TraceStepper stepper(trace, options);
  for (const EventId e : schedule) {
    if (e >= trace.num_events() || !stepper.enabled(e)) return false;
    stepper.apply(e);
  }
  return stepper.complete();
}

// --------------------------------------------------------------- encoder

TEST(TraceCnf, ModelsDecodeToFeasibleSchedules) {
  // Enumerate several distinct models per random trace by blocking each
  // decoded order; every one must replay through the stepper.
  Rng rng(21);
  for (int iter = 0; iter < 6; ++iter) {
    SemTraceConfig config;
    config.num_events = 10;
    config.binary_semaphores = (iter % 2) == 1;
    const Trace trace = random_semaphore_trace(config, rng);
    const TraceCnf cnf(trace);
    CdclSolver solver;
    solver.add_formula(cnf.formula());
    int models = 0;
    while (models < 5) {
      const CdclResult r = solver.solve();
      ASSERT_TRUE(r.decided);
      if (!r.sat.satisfiable) break;
      ++models;
      const std::vector<EventId> schedule =
          cnf.decode_schedule(r.sat.model);
      EXPECT_TRUE(replays(trace, schedule, /*respect_dependences=*/true));
      // Decoded positions and order literals must agree.
      for (std::size_t i = 0; i + 1 < schedule.size(); ++i) {
        EXPECT_TRUE(
            cnf.ordered_before(r.sat.model, schedule[i], schedule[i + 1]));
      }
      // Block this exact total order to force a fresh model.
      std::vector<Lit> block;
      for (std::size_t i = 0; i + 1 < schedule.size(); ++i) {
        block.push_back(-cnf.order_lit(schedule[i], schedule[i + 1]));
      }
      solver.add_clause(block);
    }
    EXPECT_GT(models, 0) << "observed execution exists, so F is non-empty";
  }
}

TEST(TraceCnf, BinarySemaphoreClampIsExact) {
  // p0: V V on a binary semaphore; p1: P P.  The second V is clamped
  // unless a P drains the count first, so the ONLY complete schedule is
  // V P V P.  A counting relaxation (clamped V banking a phantom token)
  // would wrongly admit V V P P.
  TraceBuilder b;
  const ObjectId s = b.binary_semaphore("s");
  const ProcId q = b.add_process();
  const EventId v1 = b.sem_v(b.root(), s);
  const EventId p1 = b.sem_p(q, s);
  const EventId v2 = b.sem_v(b.root(), s);
  const EventId p2 = b.sem_p(q, s);
  const Trace trace = b.build();

  EXPECT_FALSE(replays(trace, {v1, v2, p1, p2}, true))
      << "clamped schedule must not replay";
  EXPECT_TRUE(replays(trace, {v1, p1, v2, p2}, true));

  SatOracle oracle(trace, {});
  ASSERT_TRUE(oracle.available());
  // The unique schedule makes every consecutive pair a MUST ordering.
  EXPECT_EQ(oracle.query(RelationKind::kMHB, p1, v2,
                         Semantics::kInterleaving),
            OracleVerdict::kProven);
  EXPECT_EQ(oracle.query(RelationKind::kMHB, v2, p2,
                         Semantics::kInterleaving),
            OracleVerdict::kProven);
  EXPECT_EQ(oracle.query(RelationKind::kCHB, v2, p1,
                         Semantics::kInterleaving),
            OracleVerdict::kRefuted);
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kInterleaving);
  ASSERT_FALSE(exact.truncated);
  EXPECT_TRUE(exact.holds(RelationKind::kMHB, p1, v2));
}

TEST(TraceCnf, EventVariableEnabling) {
  // p0: Post e; p1: Clear e; p2: Wait e (e initially cleared).  Wait can
  // only run while posted, so Post MHB Wait; Clear floats freely, so
  // Wait CHB Clear and Clear CHB Post both hold.
  TraceBuilder b;
  const ObjectId e = b.event_var("e");
  const ProcId pc = b.add_process();
  const ProcId pw = b.add_process();
  const EventId post = b.post(b.root(), e);
  const EventId wait = b.wait(pw, e);
  const EventId clear = b.clear(pc, e);
  const Trace trace = b.build();

  SatOracle oracle(trace, {});
  ASSERT_TRUE(oracle.available());
  EXPECT_EQ(oracle.query(RelationKind::kMHB, post, wait,
                         Semantics::kInterleaving),
            OracleVerdict::kProven);
  EXPECT_EQ(oracle.query(RelationKind::kCHB, wait, clear,
                         Semantics::kInterleaving),
            OracleVerdict::kProven);
  EXPECT_EQ(oracle.query(RelationKind::kCHB, clear, post,
                         Semantics::kInterleaving),
            OracleVerdict::kProven);
  // A wait-before-post schedule is infeasible.
  EXPECT_EQ(oracle.query(RelationKind::kCHB, wait, post,
                         Semantics::kInterleaving),
            OracleVerdict::kRefuted);
}

// --------------------------------------------- differential vs exact

struct SweepOutcome {
  std::size_t decided = 0;
  std::size_t unknown = 0;
  std::size_t witnesses = 0;
};

// Runs the oracle against compute_exact on every relation kind, ordered
// pair and semantics of `trace`.  Soundness is absolute: proven implies
// the exact bit is set, refuted implies clear.  Interleaving queries
// must always be decided; every attached witness must replay.
SweepOutcome differential_check(const Trace& trace,
                                bool respect_dependences) {
  SweepOutcome out;
  ExactOptions exact_options;
  exact_options.respect_dependences = respect_dependences;
  SatOracleOptions oracle_options;
  oracle_options.respect_dependences = respect_dependences;
  SatOracle oracle(trace, oracle_options);
  EXPECT_TRUE(oracle.available());
  const auto n = static_cast<EventId>(trace.num_events());
  for (const Semantics semantics :
       {Semantics::kInterleaving, Semantics::kCausal, Semantics::kInterval}) {
    const OrderingRelations exact =
        compute_exact(trace, semantics, exact_options);
    EXPECT_FALSE(exact.truncated);
    if (exact.truncated) continue;
    for (const RelationKind kind : kAllRelationKinds) {
      for (EventId a = 0; a < n; ++a) {
        for (EventId b = 0; b < n; ++b) {
          const OracleVerdict v = oracle.query(kind, a, b, semantics);
          if (v == OracleVerdict::kUnknown) {
            EXPECT_NE(semantics, Semantics::kInterleaving)
                << "interleaving pairs must always be decided: "
                << to_string(kind) << "(" << a << ", " << b << ")";
            ++out.unknown;
            continue;
          }
          ++out.decided;
          EXPECT_EQ(v == OracleVerdict::kProven, exact.holds(kind, a, b))
              << to_string(kind) << "(" << a << ", " << b << ") under "
              << to_string(semantics)
              << " respect_dependences=" << respect_dependences;
          if (oracle.last_witness().has_value()) {
            ++out.witnesses;
            EXPECT_TRUE(
                replays(trace, *oracle.last_witness(), respect_dependences))
                << "witness for " << to_string(kind) << "(" << a << ", "
                << b << ") does not replay";
          }
        }
      }
    }
  }
  const SatOracleStats stats = oracle.stats();
  EXPECT_LE(stats.solver_builds, 1u) << "one cold encode per trace";
  EXPECT_EQ(stats.witness_replay_failures, 0u);
  return out;
}

TEST(SatOracleDifferential, CountingSemaphoreFamily) {
  Rng rng(101);
  for (int iter = 0; iter < 3; ++iter) {
    SemTraceConfig config;
    config.num_events = 11;
    const Trace trace = random_semaphore_trace(config, rng);
    for (const bool rd : {true, false}) {
      const SweepOutcome out = differential_check(trace, rd);
      EXPECT_GT(out.decided, 0u);
      EXPECT_GT(out.witnesses, 0u);
    }
  }
}

TEST(SatOracleDifferential, BinarySemaphoreFamily) {
  Rng rng(202);
  for (int iter = 0; iter < 3; ++iter) {
    SemTraceConfig config;
    config.num_events = 11;
    config.binary_semaphores = true;
    const Trace trace = random_semaphore_trace(config, rng);
    for (const bool rd : {true, false}) {
      const SweepOutcome out = differential_check(trace, rd);
      EXPECT_GT(out.decided, 0u);
    }
  }
}

TEST(SatOracleDifferential, EventVariableFamily) {
  Rng rng(303);
  for (int iter = 0; iter < 3; ++iter) {
    EventTraceConfig config;
    config.num_events = 11;
    config.num_variables = 2;
    const Trace trace = random_event_trace(config, rng);
    for (const bool rd : {true, false}) {
      const SweepOutcome out = differential_check(trace, rd);
      EXPECT_GT(out.decided, 0u);
    }
  }
}

TEST(SatOracleDifferential, ForkJoinFamily) {
  Rng rng(404);
  for (int iter = 0; iter < 2; ++iter) {
    const Trace trace = random_fork_join_trace(2, 3, rng);
    for (const bool rd : {true, false}) {
      const SweepOutcome out = differential_check(trace, rd);
      EXPECT_GT(out.decided, 0u);
    }
  }
}

// --------------------------------------------------- theorem reductions

TEST(SatOracleTheorems, ReductionPairsMatchThePaper) {
  // On the Theorem 1-4 reduction traces the oracle must reproduce the
  // biconditionals directly: a MHB b iff B unsatisfiable, b CHB a
  // (interleaving) iff B satisfiable — decided by the solver alone,
  // with no exponential sweep.
  struct Case {
    const char* name;
    CnfFormula formula;
    bool satisfiable;
  };
  std::vector<Case> cases;
  {
    CnfFormula sat_x;
    sat_x.add_clause({1, 1, 1});
    CnfFormula unsat_x = sat_x;
    unsat_x.add_clause({-1, -1, -1});
    CnfFormula sat_two;
    sat_two.add_clause({1, -2, -2});
    cases.push_back({"sat_x", sat_x, true});
    cases.push_back({"unsat_x", unsat_x, false});
    cases.push_back({"sat_two_vars", sat_two, true});
  }
  for (const SyncStyle style :
       {SyncStyle::kSemaphore, SyncStyle::kEventStyle}) {
    for (const Case& c : cases) {
      const ReductionExecution e =
          execute_reduction(reduce_3sat(c.formula, style));
      SatOracle oracle(e.trace, {});
      ASSERT_TRUE(oracle.available()) << c.name;
      EXPECT_EQ(oracle.query(RelationKind::kMHB, e.a, e.b,
                             Semantics::kInterleaving),
                c.satisfiable ? OracleVerdict::kRefuted
                              : OracleVerdict::kProven)
          << c.name << " style=" << to_string(style);
      EXPECT_EQ(oracle.query(RelationKind::kCHB, e.b, e.a,
                             Semantics::kInterleaving),
                c.satisfiable ? OracleVerdict::kProven
                              : OracleVerdict::kRefuted)
          << c.name << " style=" << to_string(style);
      // A refuted MHB / proven CHB comes with a replayable witness.
      if (c.satisfiable) {
        ASSERT_TRUE(oracle.last_witness().has_value()) << c.name;
        EXPECT_TRUE(replays(e.trace, *oracle.last_witness(), true));
      }
      EXPECT_EQ(oracle.stats().solver_builds, 1u);
    }
  }
}

// ----------------------------------------------------- oracle mechanics

TEST(SatOracle, OneColdSolvePerTraceAcrossSemantics) {
  Rng rng(505);
  SemTraceConfig config;
  config.num_events = 10;
  const Trace trace = random_semaphore_trace(config, rng);
  SatOracle oracle(trace, {});
  ASSERT_TRUE(oracle.available());
  const auto n = static_cast<EventId>(trace.num_events());
  for (const Semantics semantics :
       {Semantics::kInterleaving, Semantics::kCausal, Semantics::kInterval}) {
    for (EventId a = 0; a < n; ++a) {
      for (EventId b = 0; b < n; ++b) {
        oracle.query(RelationKind::kMHB, a, b, semantics);
        oracle.query(RelationKind::kCCW, a, b, semantics);
      }
    }
  }
  const SatOracleStats stats = oracle.stats();
  // ONE encode + solver build serves all three semantics — the whole
  // point of the incremental design.
  EXPECT_EQ(stats.solver_builds, 1u);
  EXPECT_GT(stats.queries, 0u);
  EXPECT_GT(stats.decided, 0u);
  EXPECT_GT(stats.pair_memo_hits, 0u) << "models must seed the pair memo";
  EXPECT_EQ(stats.witness_replay_failures, 0u);
}

TEST(SatOracle, ConflictBudgetExhaustionIsUnknownNotUnsound) {
  // unsat_x: proving a MHB b needs a real UNSAT proof (no feasible
  // schedule runs b first), which a one-conflict budget cannot finish.
  CnfFormula unsat_x;
  unsat_x.add_clause({1, 1, 1});
  unsat_x.add_clause({-1, -1, -1});
  const ReductionExecution e =
      execute_reduction(reduce_3sat_semaphores(unsat_x));
  SatOracle oracle(e.trace, {});
  ASSERT_TRUE(oracle.available());
  oracle.set_call_budget(1);
  const OracleVerdict starved =
      oracle.query(RelationKind::kMHB, e.a, e.b, Semantics::kInterleaving);
  EXPECT_EQ(starved, OracleVerdict::kUnknown);
  EXPECT_GT(oracle.stats().sat_undecided, 0u);
  // Restoring the default budget decides the same pair on the same warm
  // solver.
  oracle.set_call_budget(0);
  EXPECT_EQ(
      oracle.query(RelationKind::kMHB, e.a, e.b, Semantics::kInterleaving),
      OracleVerdict::kProven);
  EXPECT_EQ(oracle.stats().solver_builds, 1u);
}

TEST(SatOracle, DiagonalAndFeasibility) {
  Rng rng(606);
  SemTraceConfig config;
  config.num_events = 8;
  const Trace trace = random_semaphore_trace(config, rng);
  SatOracle oracle(trace, {});
  ASSERT_TRUE(oracle.available());
  EXPECT_EQ(oracle.feasible(), OracleVerdict::kProven)
      << "the observed execution itself proves F non-empty";
  for (const RelationKind kind : kAllRelationKinds) {
    EXPECT_EQ(oracle.query(kind, 2, 2, Semantics::kCausal),
              OracleVerdict::kRefuted)
        << "diagonal is false in every Table-1 relation";
  }
}

TEST(SatOracle, DeclinesOversizedTraces) {
  Rng rng(707);
  SemTraceConfig config;
  config.num_events = 12;
  const Trace trace = random_semaphore_trace(config, rng);
  SatOracleOptions options;
  options.max_events = 4;
  SatOracle oracle(trace, options);
  EXPECT_FALSE(oracle.available());
  EXPECT_EQ(oracle.query(RelationKind::kMHB, 0, 1, Semantics::kCausal),
            OracleVerdict::kUnknown);
  EXPECT_EQ(oracle.feasible(), OracleVerdict::kUnknown);
  EXPECT_EQ(oracle.stats().solver_builds, 0u);
}

}  // namespace
}  // namespace evord
