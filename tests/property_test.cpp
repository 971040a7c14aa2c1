// Cross-module property sweeps: deeper invariants than the per-module
// tests, exercised on randomized workloads from the generator library.
#include <gtest/gtest.h>

#include "approx/combined.hpp"
#include "approx/vector_clock.hpp"
#include "core/report.hpp"
#include "feasible/enumerate.hpp"
#include "feasible/feasibility.hpp"
#include "ordering/causal.hpp"
#include "ordering/exact.hpp"
#include "ordering/intervals.hpp"
#include "ordering/witness.hpp"
#include "trace/axioms.hpp"
#include "trace/trace_io.hpp"
#include "approx/hmw.hpp"
#include "sat/gen.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

#include <algorithm>

namespace evord {
namespace {

// ------------------------------------------------------------- intervals

TEST(Intervals, SerialLayoutNeverOverlaps) {
  Rng rng(101);
  SemTraceConfig config;
  config.num_events = 10;
  const Trace t = random_semaphore_trace(config, rng);
  const TransitiveClosure tc = observed_causal_closure(t);
  const auto intervals =
      realize_intervals(tc, t.observed_order(), IntervalLayout::kSerial);
  EXPECT_TRUE(intervals_respect_order(tc, intervals));
  for (EventId a = 0; a < t.num_events(); ++a) {
    for (EventId b = a + 1; b < t.num_events(); ++b) {
      EXPECT_FALSE(intervals[a].overlaps(intervals[b]));
    }
  }
}

TEST(Intervals, MaxOverlapRespectsOrderAndOverlapsOnlyIncomparables) {
  Rng rng(103);
  for (int i = 0; i < 10; ++i) {
    SemTraceConfig config;
    config.num_events = 10;
    const Trace t = random_semaphore_trace(config, rng);
    const TransitiveClosure tc = observed_causal_closure(t);
    const auto intervals = realize_intervals(tc, t.observed_order(),
                                             IntervalLayout::kMaxOverlap);
    EXPECT_TRUE(intervals_respect_order(tc, intervals));
    for (EventId a = 0; a < t.num_events(); ++a) {
      for (EventId b = 0; b < t.num_events(); ++b) {
        if (a != b && intervals[a].overlaps(intervals[b])) {
          EXPECT_TRUE(tc.incomparable(a, b))
              << "comparable events overlapped";
        }
      }
    }
  }
}

TEST(Intervals, EveryIncomparablePairHasAnOverlappingRealization) {
  // The MCW degeneracy made constructive: for each incomparable pair a
  // timing exists where the two overlap (so no pair is must-concurrent
  // OR must-ordered beyond what the causal order forces).
  Rng rng(107);
  for (int i = 0; i < 8; ++i) {
    SemTraceConfig config;
    config.num_events = 9;
    const Trace t = random_semaphore_trace(config, rng);
    const TransitiveClosure tc = observed_causal_closure(t);
    for (EventId a = 0; a < t.num_events(); ++a) {
      for (EventId b = a + 1; b < t.num_events(); ++b) {
        if (!tc.incomparable(a, b)) continue;
        const auto intervals =
            realize_overlapping_pair(tc, t.observed_order(), a, b);
        EXPECT_TRUE(intervals[a].overlaps(intervals[b]));
        EXPECT_TRUE(intervals_respect_order(tc, intervals));
      }
    }
  }
}

TEST(Intervals, RejectsComparablePairs) {
  TraceBuilder b;
  b.compute(b.root(), "x");
  b.compute(b.root(), "y");
  const Trace t = b.build();
  const TransitiveClosure tc = observed_causal_closure(t);
  EXPECT_THROW(realize_overlapping_pair(tc, t.observed_order(), 0, 1),
               CheckError);
}

// ----------------------------------------------- feasibility refinement

TEST(Feasible, ReorderedExecutionsHaveFewerOrEqualFeasibleSchedules) {
  // P' = reorder(P, sigma) carries D' derived from sigma, which includes
  // (a superset of) P's D edges: F(P') is a subset of F(P), so P' has at
  // most as many schedules and at least as many MHB pairs.
  Rng rng(109);
  for (int i = 0; i < 8; ++i) {
    SemTraceConfig config;
    config.num_events = 8;
    const Trace t = random_semaphore_trace(config, rng);
    const std::uint64_t base_count = count_schedules(t);
    const OrderingRelations base = compute_exact(t, Semantics::kCausal);
    std::size_t checked = 0;
    enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
      std::vector<EventId> mapping;
      const Trace u = reorder_trace(t, s, &mapping);
      EXPECT_LE(count_schedules(u), base_count);
      const OrderingRelations refined = compute_exact(u, Semantics::kCausal);
      for (EventId a = 0; a < t.num_events(); ++a) {
        for (EventId bb = 0; bb < t.num_events(); ++bb) {
          if (a != bb && base.holds(RelationKind::kMHB, a, bb)) {
            EXPECT_TRUE(refined.holds(RelationKind::kMHB, mapping[a],
                                      mapping[bb]));
          }
        }
      }
      return ++checked < 3;  // a few schedules per trace suffice
    });
  }
}

TEST(Feasible, WitnessesExistForEveryCouldPair) {
  Rng rng(113);
  for (int i = 0; i < 6; ++i) {
    SemTraceConfig config;
    config.num_events = 8;
    const Trace t = random_semaphore_trace(config, rng);
    const OrderingRelations rel = compute_exact(t, Semantics::kCausal);
    for (EventId a = 0; a < t.num_events(); ++a) {
      for (EventId b = 0; b < t.num_events(); ++b) {
        if (a == b) continue;
        if (rel.holds(RelationKind::kCHB, a, b)) {
          const auto w = witness_could_happen_before(t, a, b);
          ASSERT_TRUE(w.has_value());
          EXPECT_TRUE(check_schedule(t, *w).valid);
          EXPECT_TRUE(causal_closure(t, *w).reachable(a, b));
        }
        if (rel.holds(RelationKind::kCCW, a, b)) {
          const auto w = witness_could_be_concurrent(t, a, b);
          ASSERT_TRUE(w.has_value());
          EXPECT_TRUE(causal_closure(t, *w).incomparable(a, b));
        }
      }
    }
  }
}

TEST(Feasible, Section53EnlargesTheCouldRelations) {
  // Dropping F3 admits more executions: could-relations grow, must-
  // relations shrink.
  Rng rng(127);
  for (int i = 0; i < 8; ++i) {
    SemTraceConfig config;
    config.num_events = 8;
    config.num_variables = 2;
    const Trace t = random_semaphore_trace(config, rng);
    const OrderingRelations with_f3 = compute_exact(t, Semantics::kCausal);
    ExactOptions no_f3;
    no_f3.respect_dependences = false;
    const OrderingRelations without =
        compute_exact(t, Semantics::kCausal, no_f3);
    EXPECT_TRUE(with_f3[RelationKind::kCHB].subset_of(
        without[RelationKind::kCHB]));
    EXPECT_TRUE(with_f3[RelationKind::kCCW].subset_of(
        without[RelationKind::kCCW]));
    EXPECT_TRUE(without[RelationKind::kMHB].subset_of(
        with_f3[RelationKind::kMHB]));
  }
}

// ----------------------------------------------- baselines vs the truth

TEST(Baselines, HmwPhase1EqualsObservedSyncCausality) {
  // Phase 1 of HMW (observed FIFO pairing + program order) is exactly
  // the sync-only causal closure of the observed execution.
  Rng rng(131);
  for (int i = 0; i < 10; ++i) {
    SemTraceConfig config;
    config.num_events = 12;
    const Trace t = random_semaphore_trace(config, rng);
    const HmwResult hmw = compute_hmw(t);
    const TransitiveClosure tc =
        observed_causal_closure(t, {.include_data_edges = false});
    for (EventId a = 0; a < t.num_events(); ++a) {
      for (EventId b = 0; b < t.num_events(); ++b) {
        if (a == b) continue;
        EXPECT_EQ(hmw.unsafe_happened_before.holds(a, b),
                  tc.reachable(a, b))
            << a << "," << b;
      }
    }
  }
}

TEST(Baselines, VectorClockEqualsHmwPhase1) {
  Rng rng(137);
  for (int i = 0; i < 10; ++i) {
    SemTraceConfig config;
    config.num_events = 12;
    const Trace t = random_semaphore_trace(config, rng);
    const HmwResult hmw = compute_hmw(t);
    const VectorClockResult vc = compute_vector_clocks(t);
    EXPECT_EQ(vc.happened_before, hmw.unsafe_happened_before);
  }
}

TEST(Baselines, CombinedDominatesVectorClockMustClaimsNowhere) {
  // Vector clocks describe ONE execution and are not sound as must-
  // orderings; combined is sound but weaker than the observed order.
  // Check the containment that should hold: combined (sound MHB subset)
  // is a subset of the observed causal closure (what actually happened
  // must include everything guaranteed).
  Rng rng(139);
  for (int i = 0; i < 10; ++i) {
    SemTraceConfig config;
    config.num_events = 10;
    const Trace t = random_semaphore_trace(config, rng);
    const CombinedResult combined = compute_combined(t);
    const TransitiveClosure observed = observed_causal_closure(t);
    for (EventId a = 0; a < t.num_events(); ++a) {
      for (EventId b = 0; b < t.num_events(); ++b) {
        if (a != b && combined.guaranteed.holds(a, b)) {
          EXPECT_TRUE(observed.reachable(a, b));
        }
      }
    }
  }
}

// ----------------------------------------------------- export round trips

TEST(Export, CsvListsExactlyThePairs) {
  RelationMatrix m(4);
  m.set(0, 1);
  m.set(2, 3);
  const std::string csv = relation_csv(m);
  EXPECT_EQ(csv, "from,to\n0,1\n2,3\n");
}

TEST(Export, JsonContainsAllRelationsAndParsesShallowly) {
  Rng rng(149);
  SemTraceConfig config;
  config.num_events = 8;
  const Trace t = random_semaphore_trace(config, rng);
  const OrderingRelations rel = compute_exact(t, Semantics::kCausal);
  const std::string json = relations_json(t, rel);
  for (RelationKind k : kAllRelationKinds) {
    EXPECT_NE(json.find(std::string("\"") + to_string(k) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"semantics\": \"causal\""), std::string::npos);
  // Balanced braces/brackets (shallow sanity).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ------------------------------------------------------- parser fuzzing

TEST(Fuzz, MutatedTraceFilesNeverCrashTheParser) {
  Rng rng(151);
  SemTraceConfig config;
  config.num_events = 10;
  for (int iter = 0; iter < 200; ++iter) {
    const Trace t = random_semaphore_trace(config, rng);
    std::string text = write_trace(t);
    // Mutate a few random bytes.
    const std::size_t mutations = 1 + rng.below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.below(text.size());
      text[pos] = static_cast<char>(' ' + rng.below(95));
    }
    try {
      const Trace u = parse_trace_string(text);
      // If it parsed, it must be a valid trace.
      EXPECT_TRUE(validate_axioms(u).ok());
    } catch (const TraceParseError&) {
    } catch (const CheckError&) {
    }
  }
}

TEST(Fuzz, MutatedDimacsNeverCrashesTheParser) {
  Rng rng(157);
  for (int iter = 0; iter < 200; ++iter) {
    CnfFormula f = random_3sat(6, 10, rng);
    std::string text = f.to_dimacs();
    const std::size_t pos = rng.below(text.size());
    text[pos] = static_cast<char>(' ' + rng.below(95));
    try {
      const CnfFormula g = parse_dimacs_string(text);
      (void)g;
    } catch (const CheckError&) {
    }
  }
}

}  // namespace
}  // namespace evord
