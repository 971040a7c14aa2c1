// Deterministic fault-injection sweep (util/fault.hpp) across every
// explorer of the unified search core: each armed FaultPlan must stop
// the search cleanly with the matching StopReason and `truncated`
// provenance, and any witness that survives a fault must still replay.
#include <gtest/gtest.h>

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
  EXPECT_STREQ(fault::to_string(FaultKind::kAcceptFail), "accept-fail");
  EXPECT_STREQ(fault::to_string(FaultKind::kMidFrameDisconnect),
               "mid-frame-disconnect");
  EXPECT_STREQ(fault::to_string(FaultKind::kSlowLoris), "slow-loris");
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
  EXPECT_FALSE(fault::on_accept_connection());
  EXPECT_EQ(fault::on_frame_send(), fault::FrameSendAction::kProceed);
}

// --------------------------------------------- deadline-at-state tripping

TEST(FaultSweep, DeadlineAtStateStopsEveryExplorer) {
  const Trace trace = sweep_trace();
  const fault::FaultPlan plan{.kind = fault::FaultKind::kDeadlineAtState,
                              .threshold = 5};
  {
    fault::ScopedFaultPlan armed(plan);
    const OrderingRelations r =
        compute_exact(trace, Semantics::kCausal, {});
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
    EXPECT_TRUE(fault::tripped());
    EXPECT_GE(fault::states_observed(), plan.threshold);
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const CanPrecedeResult r = compute_can_precede(trace, {});
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
    EXPECT_TRUE(fault::tripped());
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const DeadlockReport r = analyze_deadlocks(trace, {});
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
    EXPECT_TRUE(fault::tripped());
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const EnumerateStats stats = enumerate_schedules(
        trace, {}, [](const std::vector<EventId>&) { return true; });
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(stats.search.stop_reason, search::StopReason::kDeadline);
    EXPECT_TRUE(fault::tripped());
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const ClassEnumStats stats = enumerate_causal_classes(
        trace, {}, testing::accept_every_class);
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(stats.search.stop_reason, search::StopReason::kDeadline);
    EXPECT_TRUE(fault::tripped());
  }
  EXPECT_FALSE(fault::enabled());
}

// --------------------------------------------------- store-fail tripping

TEST(FaultSweep, StoreFailureStopsStoreBackedExplorers) {
  const Trace trace = sweep_trace();
  const fault::FaultPlan plan{.kind = fault::FaultKind::kStoreFailAt,
                              .threshold = 3};
  {
    fault::ScopedFaultPlan armed(plan);
    const OrderingRelations r =
        compute_exact(trace, Semantics::kCausal, {});
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
    EXPECT_TRUE(fault::tripped());
    EXPECT_GE(fault::inserts_observed(), plan.threshold);
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const CanPrecedeResult r = compute_can_precede(trace, {});
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
    EXPECT_TRUE(fault::tripped());
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const DeadlockReport r = analyze_deadlocks(trace, {});
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
    EXPECT_TRUE(fault::tripped());
  }
  {
    fault::ScopedFaultPlan armed(plan);
    const ClassEnumStats stats = enumerate_causal_classes(
        trace, {}, testing::accept_every_class);
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(stats.search.stop_reason, search::StopReason::kMemory);
    EXPECT_TRUE(fault::tripped());
  }
}

TEST(FaultSweep, StoreFaultIsInertForStorelessEnumeration) {
  // The plain schedule enumerator keeps no fingerprint store, so a
  // store-fail plan has nothing to fail: the walk must complete
  // untruncated with counts identical to the no-fault baseline.
  const Trace trace = sweep_trace();
  EnumerateOptions eo;
  const EnumerateStats baseline = enumerate_schedules(
      trace, eo, [](const std::vector<EventId>&) { return true; });
  fault::ScopedFaultPlan armed({.kind = fault::FaultKind::kStoreFailAt,
                                .threshold = 1});
  const EnumerateStats faulted = enumerate_schedules(
      trace, eo, [](const std::vector<EventId>&) { return true; });
  EXPECT_FALSE(faulted.truncated);
  EXPECT_FALSE(fault::tripped());
  EXPECT_EQ(faulted.schedules, baseline.schedules);
  EXPECT_EQ(faulted.deadlocked_prefixes, baseline.deadlocked_prefixes);
}

// --------------------------------- witnesses surviving injected faults

TEST(FaultSweep, TruncatedDeadlockSearchStillYieldsReplayableWitness) {
  // Sweep the deadline trip point upward: once the budget admits a stuck
  // state, the truncated report must carry a witness that replays to a
  // wedged frontier.
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
