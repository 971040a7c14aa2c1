// Resource-governed anytime queries (src/resilience/anytime.hpp):
// budget-ladder escalation, graceful degradation to sound one-sided
// bounds, memory-budget acceptance (the search must stop with
// StopReason::kMemory close to the byte budget), and provenance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "feasible/deadlock.hpp"
#include "feasible/stepper.hpp"
#include "ordering/exact.hpp"
#include "race/race_detector.hpp"
#include "reductions/reduction.hpp"
#include "resilience/anytime.hpp"
#include "sat/dpll.hpp"
#include "trace/builder.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

/// The Theorem-1 gadget: the semaphore 3SAT reduction's trace, whose
/// exact causal analysis is the hard direction of the theorem.
Trace theorem1_trace() {
  CnfFormula f;
  f.add_clause({1, 1, 2});
  f.add_clause({-1, -1, 2});
  return execute_reduction(reduce_3sat_semaphores(f)).trace;
}

Trace wedgeable_trace() {
  CnfFormula f;
  f.add_clause({1, 1, 1});
  return execute_reduction(reduce_3sat_events(f)).trace;
}

// ------------------------------------------------------------- plumbing

TEST(Anytime, VerdictStateNames) {
  EXPECT_STREQ(to_string(VerdictState::kUnknown), "unknown");
  EXPECT_STREQ(to_string(VerdictState::kProven), "proven");
  EXPECT_STREQ(to_string(VerdictState::kRefuted), "refuted");
}

TEST(Anytime, DefaultLadderEscalates) {
  const auto ladder = AnytimeOptions::default_ladder();
  ASSERT_GE(ladder.size(), 2u);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].max_states, ladder[i - 1].max_states);
    EXPECT_GT(ladder[i].max_schedules, ladder[i - 1].max_schedules);
    EXPECT_GT(ladder[i].max_memory_bytes, ladder[i - 1].max_memory_bytes);
  }
}

TEST(Anytime, DeadlineLadderTimeBoxesTheDefaultRungs) {
  const auto def = AnytimeOptions::default_ladder();
  const double deadline = 0.2;
  const auto ladder = deadline_ladder(deadline);
  ASSERT_EQ(ladder.size(), def.size());
  double total = 0.0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    // Deterministic caps preserved; only the time box is added.
    EXPECT_EQ(ladder[i].max_states, def[i].max_states);
    EXPECT_EQ(ladder[i].max_schedules, def[i].max_schedules);
    EXPECT_EQ(ladder[i].max_memory_bytes, def[i].max_memory_bytes);
    EXPECT_EQ(ladder[i].max_conflicts, def[i].max_conflicts);
    EXPECT_GT(ladder[i].time_budget_seconds, 0.0);
    total += ladder[i].time_budget_seconds;
  }
  // The slices sum to the deadline (no rung can start past it).
  EXPECT_LE(total, deadline + 1e-9);
  // Later rungs get the bigger shares.
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i].time_budget_seconds,
              ladder[i - 1].time_budget_seconds);
  }
  // No deadline -> the default ladder, unchanged.
  EXPECT_EQ(ladder_digest(deadline_ladder(0.0)), ladder_digest(def));
  EXPECT_EQ(ladder_digest(deadline_ladder(-1.0)), ladder_digest(def));
  // A pathologically tight deadline still floors every rung at 1 ms so
  // each makes SOME progress instead of tripping at state zero.
  for (const QueryBudget& rung : deadline_ladder(1e-6)) {
    EXPECT_GE(rung.time_budget_seconds, 0.001);
  }
}

TEST(Anytime, DeadlineLadderVerdictsAreSound) {
  // A deadline-armed ladder may degrade but never contradicts the
  // un-deadlined exact answer (the daemon's degradation contract).
  const Trace trace = theorem1_trace();
  const OrderingRelations exact = compute_exact(trace, Semantics::kCausal);
  AnytimeQuery deadlined(trace,
                         {.ladder = deadline_ladder(0.05), .exact = {}});
  for (EventId a = 0; a < trace.num_events(); a += 3) {
    for (EventId b = 0; b < trace.num_events(); b += 3) {
      if (a == b) continue;
      const BoundedVerdict v = deadlined.must_have_happened_before(a, b);
      if (v.unknown()) continue;
      EXPECT_EQ(v.proven(), exact.holds(RelationKind::kMHB, a, b))
          << "pair (" << a << ", " << b << "): " << v.summary();
    }
  }
}

// ---------------------------------------------- complete-run equivalence

TEST(Anytime, CompleteRunMatchesExactAnswers) {
  Rng rng(11);
  SemTraceConfig config;
  config.num_events = 10;
  const Trace trace = random_semaphore_trace(config, rng);
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kCausal, {});
  ASSERT_FALSE(exact.truncated);

  AnytimeQuery query(trace);
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a == b) continue;
      const BoundedVerdict mhb = query.must_have_happened_before(a, b);
      EXPECT_EQ(mhb.state, exact.holds(RelationKind::kMHB, a, b)
                               ? VerdictState::kProven
                               : VerdictState::kRefuted);
      EXPECT_TRUE(mhb.provenance.exact_complete);
      EXPECT_EQ(mhb.provenance.engine, "exact");
      const BoundedVerdict ccw = query.could_have_been_concurrent(a, b);
      EXPECT_EQ(ccw.state, exact.holds(RelationKind::kCCW, a, b)
                               ? VerdictState::kProven
                               : VerdictState::kRefuted);
    }
  }
}

TEST(Anytime, ProvenCouldQueriesCarryReplayableWitnesses) {
  Rng rng(3);
  SemTraceConfig config;
  config.num_events = 10;
  const Trace trace = random_semaphore_trace(config, rng);
  AnytimeQuery query(trace);
  std::size_t witnesses = 0;
  for (EventId a = 0; a < trace.num_events() && witnesses < 6; ++a) {
    for (EventId b = 0; b < trace.num_events() && witnesses < 6; ++b) {
      if (a == b) continue;
      const BoundedVerdict chb = query.could_have_happened_before(a, b);
      if (!chb.proven() || !chb.witness.has_value()) continue;
      ++witnesses;
      // The witness must be a valid complete schedule.
      TraceStepper stepper(trace, {});
      for (const EventId e : *chb.witness) {
        ASSERT_TRUE(stepper.enabled(e));
        stepper.apply(e);
      }
      EXPECT_TRUE(stepper.complete());
    }
  }
  EXPECT_GT(witnesses, 0u);
}

// ------------------------------------------- degradation stays sound

TEST(Anytime, TruncatedLadderNeverContradictsExact) {
  const Trace trace = theorem1_trace();
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kCausal, {});
  ASSERT_FALSE(exact.truncated);

  // A ladder whose largest rung still truncates: every definitive
  // verdict must now come from a sound one-sided bound.
  AnytimeOptions options;
  options.ladder = {QueryBudget{.max_schedules = 2},
                    QueryBudget{.max_schedules = 6}};
  AnytimeQuery query(trace, options);
  std::size_t proven = 0, refuted = 0, unknown = 0;
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a == b) continue;
      const BoundedVerdict mhb = query.must_have_happened_before(a, b);
      EXPECT_FALSE(mhb.provenance.exact_complete);
      EXPECT_EQ(mhb.provenance.rungs_tried, options.ladder.size());
      if (mhb.proven()) {
        ++proven;
        EXPECT_TRUE(exact.holds(RelationKind::kMHB, a, b))
            << "unsound proof for (" << a << ", " << b << ") via "
            << mhb.provenance.engine;
      } else if (mhb.refuted()) {
        ++refuted;
        EXPECT_FALSE(exact.holds(RelationKind::kMHB, a, b))
            << "unsound refutation for (" << a << ", " << b << ") via "
            << mhb.provenance.engine;
      } else {
        ++unknown;
      }
      const BoundedVerdict ccw = query.could_have_been_concurrent(a, b);
      if (ccw.proven()) {
        EXPECT_TRUE(exact.holds(RelationKind::kCCW, a, b));
      } else if (ccw.refuted()) {
        EXPECT_FALSE(exact.holds(RelationKind::kCCW, a, b));
      }
    }
  }
  // Degradation must actually decide most pairs (combined + partial
  // matrices are strong on this gadget), not shrug everything off.
  EXPECT_GT(proven, 0u);
  EXPECT_GT(refuted, 0u);
}

TEST(Anytime, MemoryBudgetTripsWithinTenPercent) {
  // Acceptance: a memory-budgeted Theorem-1 causal sweep stops with
  // StopReason::kMemory, its store footprint stays within 10% of the
  // byte budget, and the degraded verdicts are confirmed by the
  // unbudgeted exact matrix.
  const Trace trace = theorem1_trace();
  constexpr std::uint64_t kBudget = 4096;
  ExactOptions budgeted;
  budgeted.max_memory_bytes = kBudget;
  const OrderingRelations r =
      compute_exact(trace, Semantics::kCausal, budgeted);
  ASSERT_TRUE(r.truncated);
  EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
  // memo_bytes counts the fingerprint stores the budget charged (plus
  // nothing else here), so it must respect the budget modulo the
  // documented one-state-per-worker overshoot.
  EXPECT_LE(r.search.memo_bytes,
            kBudget + kBudget / 10);

  const OrderingRelations exact =
      compute_exact(trace, Semantics::kCausal, {});
  ASSERT_FALSE(exact.truncated);
  AnytimeOptions options;
  options.ladder = {QueryBudget{.max_memory_bytes = kBudget}};
  AnytimeQuery query(trace, options);
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a == b) continue;
      const BoundedVerdict v = query.must_have_happened_before(a, b);
      if (v.proven()) {
        EXPECT_TRUE(exact.holds(RelationKind::kMHB, a, b));
      } else if (v.refuted()) {
        EXPECT_FALSE(exact.holds(RelationKind::kMHB, a, b));
      }
    }
  }
  const BoundedVerdict sample = query.must_have_happened_before(0, 1);
  EXPECT_EQ(sample.provenance.stop_reason, search::StopReason::kMemory);
  EXPECT_TRUE(sample.provenance.truncated);
}

TEST(Anytime, MemoryBudgetCapsTheExactSweep) {
  const Trace trace = theorem1_trace();
  constexpr std::uint64_t kBudget = 4096;
  ExactOptions budgeted;
  budgeted.max_memory_bytes = kBudget;
  const OrderingRelations r =
      compute_exact(trace, Semantics::kCausal, budgeted);
  ASSERT_TRUE(r.truncated);
  EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
  // The budget of N bytes caps the footprint at N (same contract as
  // max_states); allow the documented overshoot of one state's charge.
  EXPECT_LE(r.search.memo_bytes, kBudget + kBudget / 10);
}

// -------------------------------------------------- deadlocks and races

TEST(Anytime, DeadlockProofSurvivesTruncationWithWitness) {
  const Trace trace = wedgeable_trace();
  AnytimeQuery query(trace);
  const BoundedVerdict v = query.can_deadlock();
  ASSERT_TRUE(v.proven());
  ASSERT_TRUE(v.witness.has_value());
  TraceStepper stepper(trace, {});
  for (const EventId e : *v.witness) {
    ASSERT_TRUE(stepper.enabled(e));
    stepper.apply(e);
  }
  EXPECT_FALSE(stepper.complete());
  std::vector<EventId> enabled;
  stepper.enabled_events(enabled);
  EXPECT_TRUE(enabled.empty());
}

TEST(Anytime, DeadlockRefutationRequiresExhaustion) {
  // A deadlock-free trace under a ladder too small to finish the
  // search: the verdict must be unknown, never a false refutation.
  Rng rng(5);
  SemTraceConfig config;
  config.num_events = 14;
  const Trace trace = random_semaphore_trace(config, rng);
  const DeadlockReport full = analyze_deadlocks(trace, {});
  ASSERT_FALSE(full.truncated);

  AnytimeOptions tiny;
  tiny.ladder = {QueryBudget{.max_states = 3}};
  AnytimeQuery truncated_query(trace, tiny);
  const BoundedVerdict small = truncated_query.can_deadlock();
  if (full.can_deadlock) {
    EXPECT_NE(small.state, VerdictState::kRefuted);
  } else {
    EXPECT_TRUE(small.unknown());
    EXPECT_TRUE(small.provenance.truncated);
  }

  AnytimeQuery big_query(trace);
  const BoundedVerdict big = big_query.can_deadlock();
  EXPECT_EQ(big.proven(), full.can_deadlock);
  if (!full.can_deadlock) {
    EXPECT_TRUE(big.refuted());
  }
}

TEST(Anytime, RaceVerdictsMatchDetectors) {
  // Two unsynchronized writes race; a V->P ordered pair does not.
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  const VarId x = b.variable("x");
  const VarId y = b.variable("y");
  const ProcId p0 = b.root();
  const ProcId p1 = b.add_process();
  b.compute(p0, "w0", {}, {x});
  b.compute(p1, "w1", {}, {x});
  b.compute(p0, "g0", {}, {y});
  b.sem_v(p0, s);
  b.sem_p(p1, s);
  b.compute(p1, "g1", {}, {y});
  const Trace trace = b.build();

  AnytimeQuery query(trace);
  const BoundedVerdict racing = query.race_between(0, 1);
  EXPECT_TRUE(racing.proven());
  // g0 (event 2) -> V -> P -> g1 (event 5): ordered in every execution.
  const BoundedVerdict ordered = query.race_between(2, 5);
  EXPECT_TRUE(ordered.refuted());
}

TEST(Anytime, RaceRefutationViaGuaranteedDetectorUnderTruncation) {
  const Trace trace = theorem1_trace();
  const RaceReport exact = detect_races_exact(trace, {});
  ASSERT_FALSE(exact.truncated);

  AnytimeOptions tiny;
  tiny.ladder = {QueryBudget{.max_schedules = 2}};
  AnytimeQuery query(trace, tiny);
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = a + 1; b < trace.num_events(); ++b) {
      const BoundedVerdict v = query.race_between(a, b);
      if (v.proven()) {
        EXPECT_TRUE(exact.contains(a, b));
      } else if (v.refuted()) {
        EXPECT_FALSE(exact.contains(a, b));
      }
    }
  }
}

// ---------------------------------------------------------- provenance

TEST(Anytime, ProvenanceRecordsLadderClimb) {
  const Trace trace = theorem1_trace();
  AnytimeOptions options;
  options.ladder = {QueryBudget{.max_schedules = 2},
                    QueryBudget{.max_schedules = 4},
                    QueryBudget{}};  // unlimited: completes
  AnytimeQuery query(trace, options);
  const BoundedVerdict v = query.must_have_happened_before(0, 1);
  EXPECT_TRUE(v.provenance.exact_complete);
  EXPECT_EQ(v.provenance.rungs_tried, 3u);
  EXPECT_EQ(v.provenance.stop_reason, search::StopReason::kNone);
  EXPECT_GT(v.provenance.states_visited, 0u);
  EXPECT_GE(v.provenance.seconds_spent, 0.0);
  const std::string s = v.summary();
  EXPECT_NE(s.find("engine=exact"), std::string::npos);
  EXPECT_NE(s.find("rungs=3"), std::string::npos);
}

}  // namespace
}  // namespace evord
