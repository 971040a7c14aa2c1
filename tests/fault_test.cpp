// Deterministic fault-injection sweep (util/fault.hpp) across every
// explorer of the unified search core: each armed FaultPlan must stop
// the search cleanly with the matching StopReason and `truncated`
// provenance, result-preserving faults (steal stall / poison) must keep
// every result bit-identical, and any witness that survives a fault must
// still replay.  The sweep runs serial and at 2/4/8 workers (the tsan
// label re-runs it under ThreadSanitizer).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "feasible/deadlock.hpp"
#include "feasible/enumerate.hpp"
#include "feasible/schedule_space.hpp"
#include "feasible/stepper.hpp"
#include "ordering/class_enumerate.hpp"
#include "ordering/exact.hpp"
#include "reductions/reduction.hpp"
#include "sat/dpll.hpp"
#include "util/fault.hpp"
#include "helpers.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

const std::vector<std::size_t> kWorkerCounts{1, 2, 4, 8};

/// A semaphore trace with a state space far larger than any fault
/// threshold used below, so every trip lands mid-search.
Trace sweep_trace() {
  Rng rng(7);
  SemTraceConfig config;
  config.num_processes = 3;
  config.num_semaphores = 2;
  config.num_events = 14;
  return random_semaphore_trace(config, rng);
}

/// The paper's event-style 3SAT gadget ("Although these processes can
/// deadlock..."): a trace with reachable stuck states, for witness
/// assertions under faults.
Trace wedgeable_trace() {
  CnfFormula f;
  f.add_clause({1, 1, 1});
  return execute_reduction(reduce_3sat_events(f)).trace;
}

void expect_wedged_prefix(const Trace& trace,
                          const std::vector<EventId>& witness) {
  TraceStepper stepper(trace, {});
  for (const EventId e : witness) {
    ASSERT_TRUE(stepper.enabled(e)) << "witness is not schedulable";
    stepper.apply(e);
  }
  ASSERT_FALSE(stepper.complete());
  std::vector<EventId> enabled;
  stepper.enabled_events(enabled);
  EXPECT_TRUE(enabled.empty()) << "witness does not end in a stuck state";
}

// ---------------------------------------------------------------- plumbing

TEST(FaultPlan, NamesAreExhaustive) {
  using fault::FaultKind;
  EXPECT_STREQ(fault::to_string(FaultKind::kNone), "none");
  EXPECT_STREQ(fault::to_string(FaultKind::kDeadlineAtState),
               "deadline-at-state");
  EXPECT_STREQ(fault::to_string(FaultKind::kStoreFailAt), "store-fail-at");
  EXPECT_STREQ(fault::to_string(FaultKind::kStealStall), "steal-stall");
  EXPECT_STREQ(fault::to_string(FaultKind::kStealPoison), "steal-poison");
  EXPECT_STREQ(fault::to_string(static_cast<FaultKind>(0xff)), "unknown");
}

TEST(FaultPlan, SeededThresholdIsDeterministic) {
  const fault::FaultPlan a{.kind = fault::FaultKind::kDeadlineAtState,
                           .seed = 42};
  const fault::FaultPlan b{.kind = fault::FaultKind::kDeadlineAtState,
                           .seed = 42};
  EXPECT_EQ(a.resolved_threshold(), b.resolved_threshold());
  EXPECT_GE(a.resolved_threshold(), 1u);
  EXPECT_LE(a.resolved_threshold(), 98u);
  const fault::FaultPlan c{.kind = fault::FaultKind::kDeadlineAtState,
                           .threshold = 17, .seed = 42};
  EXPECT_EQ(c.resolved_threshold(), 17u);
}

TEST(FaultPlan, DisarmedHooksAreInert) {
  fault::disarm();
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::on_state_expanded());
  EXPECT_FALSE(fault::on_store_insert());
  EXPECT_EQ(fault::on_steal_attempt(0), fault::StealAction::kProceed);
}

// --------------------------------------------- deadline-at-state tripping

TEST(FaultSweep, DeadlineAtStateStopsEveryExplorer) {
  const Trace trace = sweep_trace();
  const fault::FaultPlan plan{.kind = fault::FaultKind::kDeadlineAtState,
                              .threshold = 5};
  for (const std::size_t threads : kWorkerCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      fault::ScopedFaultPlan armed(plan);
      ExactOptions eo;
      eo.num_threads = threads;
      const OrderingRelations r =
          compute_exact(trace, Semantics::kCausal, eo);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
      EXPECT_GE(fault::states_observed(), plan.threshold);
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ScheduleSpaceOptions so;
      so.num_threads = threads;
      const CanPrecedeResult r = compute_can_precede(trace, so);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      DeadlockOptions dopts;
      dopts.num_threads = threads;
      const DeadlockReport r = analyze_deadlocks(trace, dopts);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      EnumerateOptions eo;
      eo.num_threads = threads;
      const EnumerateStats stats = enumerate_schedules(
          trace, eo,
          [](std::size_t, const std::vector<EventId>&) { return true; });
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ClassEnumOptions co;
      co.num_threads = threads;
      const ClassEnumStats stats = enumerate_causal_classes(
          trace, co, testing::accept_every_class);
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.search.stop_reason, search::StopReason::kDeadline);
      EXPECT_TRUE(fault::tripped());
    }
  }
  EXPECT_FALSE(fault::enabled());
}

// --------------------------------------------------- store-fail tripping

TEST(FaultSweep, StoreFailureStopsStoreBackedExplorers) {
  const Trace trace = sweep_trace();
  const fault::FaultPlan plan{.kind = fault::FaultKind::kStoreFailAt,
                              .threshold = 3};
  for (const std::size_t threads : kWorkerCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      fault::ScopedFaultPlan armed(plan);
      ExactOptions eo;
      eo.num_threads = threads;
      const OrderingRelations r =
          compute_exact(trace, Semantics::kCausal, eo);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
      EXPECT_GE(fault::inserts_observed(), plan.threshold);
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ScheduleSpaceOptions so;
      so.num_threads = threads;
      const CanPrecedeResult r = compute_can_precede(trace, so);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      DeadlockOptions dopts;
      dopts.num_threads = threads;
      const DeadlockReport r = analyze_deadlocks(trace, dopts);
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
    }
    {
      fault::ScopedFaultPlan armed(plan);
      ClassEnumOptions co;
      co.num_threads = threads;
      const ClassEnumStats stats = enumerate_causal_classes(
          trace, co, testing::accept_every_class);
      EXPECT_TRUE(stats.truncated);
      EXPECT_EQ(stats.search.stop_reason, search::StopReason::kMemory);
      EXPECT_TRUE(fault::tripped());
    }
  }
}

TEST(FaultSweep, StoreFaultIsInertForStorelessEnumeration) {
  // The plain schedule enumerator keeps no fingerprint store, so a
  // store-fail plan has nothing to fail: the walk must complete
  // untruncated with counts identical to the no-fault baseline.
  const Trace trace = sweep_trace();
  EnumerateOptions eo;
  const EnumerateStats baseline = enumerate_schedules(
      trace, eo, [](std::size_t, const std::vector<EventId>&) { return true; });
  fault::ScopedFaultPlan armed({.kind = fault::FaultKind::kStoreFailAt,
                                .threshold = 1});
  const EnumerateStats faulted = enumerate_schedules(
      trace, eo, [](std::size_t, const std::vector<EventId>&) { return true; });
  EXPECT_FALSE(faulted.truncated);
  EXPECT_FALSE(fault::tripped());
  EXPECT_EQ(faulted.schedules, baseline.schedules);
  EXPECT_EQ(faulted.deadlocked_prefixes, baseline.deadlocked_prefixes);
}

// ------------------------------------- result-preserving steal faults

TEST(FaultSweep, StealPoisonPreservesExactResults) {
  // A sweep that grows its helpers, so there are steals to poison.
  const Trace trace = testing::contended_trace(4, 2);
  ExactOptions eo;
  const OrderingRelations baseline =
      compute_exact(trace, Semantics::kCausal, eo);
  ASSERT_FALSE(baseline.truncated);
  for (const fault::FaultKind kind : {fault::FaultKind::kStealStall,
                                      fault::FaultKind::kStealPoison}) {
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      SCOPED_TRACE(std::string(fault::to_string(kind)) +
                   " threads=" + std::to_string(threads));
      fault::ScopedFaultPlan armed({.kind = kind,
                                    .worker = fault::kAnyWorker});
      ExactOptions peo;
      peo.num_threads = threads;
      const OrderingRelations r =
          compute_exact(trace, Semantics::kCausal, peo);
      EXPECT_TRUE(fault::tripped());
      EXPECT_FALSE(r.truncated);
      testing::expect_grew(r.search, threads);
      EXPECT_EQ(r.causal_classes, baseline.causal_classes);
      EXPECT_EQ(r.feasible_empty, baseline.feasible_empty);
      for (RelationKind k : kAllRelationKinds) {
        EXPECT_EQ(r[k], baseline[k]) << "relation " << to_string(k);
      }
    }
  }
}

TEST(FaultSweep, TargetedStealPoisonOnlyHitsOneWorker) {
  const Trace trace = testing::contended_trace(4, 2);
  ExactOptions eo;
  const OrderingRelations baseline =
      compute_exact(trace, Semantics::kCausal, eo);
  fault::ScopedFaultPlan armed({.kind = fault::FaultKind::kStealPoison,
                                .worker = 1});
  ExactOptions peo;
  peo.num_threads = 4;
  const OrderingRelations r = compute_exact(trace, Semantics::kCausal, peo);
  EXPECT_TRUE(fault::tripped());
  EXPECT_FALSE(r.truncated);
  testing::expect_grew(r.search, 4);
  ASSERT_EQ(r.search.workers.size(), 4u);
  // Worker 1's every probe round reports empty: it runs no stolen task.
  EXPECT_EQ(r.search.workers[1].tasks_stolen, 0u);
  for (RelationKind k : kAllRelationKinds) {
    EXPECT_EQ(r[k], baseline[k]) << "relation " << to_string(k);
  }
}

// --------------------------------- witnesses surviving injected faults

TEST(FaultSweep, TruncatedDeadlockSearchStillYieldsReplayableWitness) {
  // Sweep the deadline trip point upward: once the budget admits a stuck
  // state, the truncated report must carry a witness that replays to a
  // wedged frontier.  (Serial, so the sweep is exactly deterministic.)
  const Trace trace = wedgeable_trace();
  bool found_truncated_witness = false;
  for (std::uint64_t threshold = 2; threshold <= 4096 &&
                                    !found_truncated_witness;
       threshold *= 2) {
    fault::ScopedFaultPlan armed(
        {.kind = fault::FaultKind::kDeadlineAtState,
         .threshold = threshold});
    const DeadlockReport r = analyze_deadlocks(trace, {});
    if (!r.truncated) break;  // search finished under this trip point
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
    if (r.can_deadlock) {
      expect_wedged_prefix(trace, r.witness_prefix);
      found_truncated_witness = true;
    }
  }
  EXPECT_TRUE(found_truncated_witness)
      << "no trip point produced a truncated run with a witness";
}

TEST(FaultSweep, ReplaySameSeedSameStats) {
  const Trace trace = sweep_trace();
  auto run = [&] {
    fault::ScopedFaultPlan armed(
        {.kind = fault::FaultKind::kDeadlineAtState, .seed = 1234});
    DeadlockOptions dopts;
    return analyze_deadlocks(trace, dopts);
  };
  const DeadlockReport a = run();
  const DeadlockReport b = run();
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.can_deadlock, b.can_deadlock);
  EXPECT_EQ(a.witness_prefix, b.witness_prefix);
  EXPECT_EQ(a.search.stop_reason, b.search.stop_reason);
}

}  // namespace
}  // namespace evord
