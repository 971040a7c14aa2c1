#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "feasible/enumerate.hpp"
#include "feasible/feasibility.hpp"
#include "feasible/schedule_space.hpp"
#include "feasible/stepper.hpp"
#include "helpers.hpp"
#include "ordering/witness.hpp"
#include "trace/axioms.hpp"
#include "trace/builder.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace evord {
namespace {

using evord::testing::RandomTraceConfig;
using evord::testing::random_trace;

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// Two independent processes with `n` and `m` computation events.
Trace independent_procs(std::size_t n, std::size_t m) {
  TraceBuilder b;
  const ProcId p1 = b.add_process();
  for (std::size_t i = 0; i < n; ++i) b.compute(b.root(), "a" + std::to_string(i));
  for (std::size_t i = 0; i < m; ++i) b.compute(p1, "b" + std::to_string(i));
  return b.build();
}

Trace producer_consumer() {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "produce");
  b.sem_v(b.root(), s);
  b.sem_p(p1, s);
  b.compute(p1, "consume");
  return b.build();
}

// ---------------------------------------------------------------- stepper

TEST(Stepper, InitialFrontier) {
  const Trace t = producer_consumer();
  TraceStepper s(t);
  EXPECT_FALSE(s.complete());
  EXPECT_EQ(s.num_executed(), 0u);
  EXPECT_EQ(s.next_of(0), 0u);
  EXPECT_EQ(s.next_of(1), 2u);
  EXPECT_TRUE(s.enabled(0));
  EXPECT_FALSE(s.enabled(2));  // P before any V
  std::vector<EventId> enabled;
  s.enabled_events(enabled);
  EXPECT_EQ(enabled, std::vector<EventId>{0});
}

TEST(Stepper, ApplyUndoRoundTrip) {
  const Trace t = producer_consumer();
  TraceStepper s(t);
  std::vector<std::uint64_t> key_before;
  s.encode_key(key_before);
  const auto u0 = s.apply(0);
  const auto u1 = s.apply(1);
  EXPECT_EQ(s.sem_count(0), 1);
  EXPECT_TRUE(s.enabled(2));
  s.undo(u1);
  s.undo(u0);
  std::vector<std::uint64_t> key_after;
  s.encode_key(key_after);
  EXPECT_EQ(key_before, key_after);
  EXPECT_EQ(s.num_executed(), 0u);
  EXPECT_EQ(s.sem_count(0), 0);
}

TEST(Stepper, CompletesAlongObservedOrder) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    RandomTraceConfig config;
    config.num_event_vars = i % 3;
    const Trace t = random_trace(config, rng);
    TraceStepper s(t);
    for (EventId e : t.observed_order()) {
      ASSERT_TRUE(s.enabled(e)) << describe(t.event(e));
      s.apply(e);
    }
    EXPECT_TRUE(s.complete());
  }
}

TEST(Stepper, DependencePredecessorsGateEvents) {
  TraceBuilder b;
  const VarId x = b.variable("x");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w", {}, {x});
  b.compute(p1, "r", {x}, {});
  const Trace t = b.build();
  {
    TraceStepper s(t);
    EXPECT_FALSE(s.enabled(1));  // D edge w -> r
  }
  {
    TraceStepper s(t, {.respect_dependences = false});
    EXPECT_TRUE(s.enabled(1));
  }
}

TEST(Stepper, ForkGatesChildAndJoinGatesParent) {
  TraceBuilder b;
  const ProcId c = b.fork(b.root());
  b.compute(c, "w");
  b.join(b.root(), c);
  const Trace t = b.build();
  TraceStepper s(t);
  EXPECT_FALSE(s.enabled(1));  // child's first event needs the fork
  const auto uf = s.apply(0);
  EXPECT_TRUE(s.enabled(1));
  EXPECT_FALSE(s.enabled(2));  // join needs the child to finish
  s.apply(1);
  EXPECT_TRUE(s.enabled(2));
  (void)uf;
}

TEST(Stepper, BinarySemaphoreClampUndo) {
  TraceBuilder b;
  const ObjectId m = b.binary_semaphore("m");
  const ProcId p1 = b.add_process();
  b.sem_v(b.root(), m);
  b.sem_v(p1, m);  // clamped in the observed order
  b.sem_p(b.root(), m);
  const Trace t = b.build();
  TraceStepper s(t);
  const auto u0 = s.apply(0);
  EXPECT_EQ(s.sem_count(0), 1);
  const auto u1 = s.apply(1);  // clamped
  EXPECT_EQ(s.sem_count(0), 1);
  s.undo(u1);
  EXPECT_EQ(s.sem_count(0), 1);
  s.undo(u0);
  EXPECT_EQ(s.sem_count(0), 0);
}

TEST(Stepper, KeyDistinguishesPostedFlags) {
  // Same positions, different posted state => different keys.
  TraceBuilder b;
  const ObjectId e = b.event_var("e");
  const ProcId p1 = b.add_process();
  b.post(b.root(), e);
  b.clear(p1, e);
  const Trace t = b.build();
  TraceStepper s(t);
  std::vector<std::uint64_t> k0, k1;
  const auto u = s.apply(0);
  s.encode_key(k0);
  s.undo(u);
  s.apply(1);  // impossible order in practice? clear is enabled anytime
  s.encode_key(k1);
  EXPECT_NE(k0, k1);
}

// -------------------------------------------------------------- enumerate

TEST(Enumerate, IndependentProcessesMatchBinomial) {
  for (std::size_t n = 1; n <= 4; ++n) {
    for (std::size_t m = 1; m <= 4; ++m) {
      const Trace t = independent_procs(n, m);
      EXPECT_EQ(count_schedules(t), binomial(n + m, n))
          << n << " x " << m;
    }
  }
}

TEST(Enumerate, ProducerConsumerHasOneSchedule) {
  EXPECT_EQ(count_schedules(producer_consumer()), 1u);
}

TEST(Enumerate, EveryScheduleIsValidAndUnique) {
  Rng rng(11);
  for (int i = 0; i < 15; ++i) {
    RandomTraceConfig config;
    config.num_events = 8;
    config.num_event_vars = i % 2;
    const Trace t = random_trace(config, rng);
    std::set<std::vector<EventId>> seen;
    enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
      EXPECT_TRUE(seen.insert(s).second) << "duplicate schedule";
      const ScheduleCheck check = check_schedule(t, s);
      EXPECT_TRUE(check.valid) << check.reason;
      return true;
    });
    EXPECT_FALSE(seen.empty());
  }
}

TEST(Enumerate, ObservedOrderIsAmongSchedules) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    const Trace t = random_trace({}, rng);
    bool found = false;
    enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
      if (s == t.observed_order()) found = true;
      return true;
    });
    EXPECT_TRUE(found);
  }
}

TEST(Enumerate, DependencesReduceScheduleCount) {
  // Two conflicting writes in different processes: with F3 only one
  // direction is allowed.
  TraceBuilder b;
  const VarId x = b.variable("x");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w0", {}, {x});
  b.compute(p1, "w1", {}, {x});
  const Trace t = b.build();
  EXPECT_EQ(count_schedules(t), 1u);
  EnumerateOptions no_deps;
  no_deps.stepper.respect_dependences = false;
  EXPECT_EQ(enumerate_schedules(t, no_deps,
                                [](std::size_t, const std::vector<EventId>&) {
                                  return true;
                                })
                .schedules,
            2u);
}

TEST(Enumerate, CountsDeadlockedPrefixes) {
  // post/wait/clear: scheduling clear before wait wedges the wait.
  TraceBuilder b;
  const ObjectId e = b.event_var("e");
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  b.post(b.root(), e);
  b.wait(p1, e);
  b.clear(p2, e);
  const Trace t = b.build();
  const EnumerateStats stats = enumerate_schedules(
      t, {}, [](std::size_t, const std::vector<EventId>&) { return true; });
  // Valid schedules: post wait clear, post clear? (wait blocked -> dead),
  // clear is enabled first too: clear post wait is fine.
  EXPECT_GT(stats.schedules, 0u);
  EXPECT_GT(stats.deadlocked_prefixes, 0u);
}

TEST(Enumerate, MaxSchedulesTruncates) {
  const Trace t = independent_procs(4, 4);
  EnumerateOptions options;
  options.max_schedules = 5;
  const EnumerateStats stats = enumerate_schedules(
      t, options, [](std::size_t, const std::vector<EventId>&) { return true; });
  EXPECT_EQ(stats.schedules, 5u);
  EXPECT_TRUE(stats.truncated);
}

TEST(Enumerate, VisitorCanStopEarly) {
  const Trace t = independent_procs(3, 3);
  std::uint64_t seen = 0;
  const EnumerateStats stats = enumerate_schedules(
      t, {}, [&](std::size_t, const std::vector<EventId>&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3u);
  EXPECT_TRUE(stats.stopped_by_visitor);
}

TEST(Enumerate, ParallelMatchesSerialCount) {
  Rng rng(17);
  for (int i = 0; i < 6; ++i) {
    RandomTraceConfig config;
    config.num_events = 9;
    const Trace t = random_trace(config, rng);
    const std::uint64_t serial = count_schedules(t);
    std::atomic<std::uint64_t> parallel_visits{0};
    EnumerateOptions options;
    options.num_threads = 2;
    const EnumerateStats stats = enumerate_schedules(
        t, options, [&](std::size_t, const std::vector<EventId>&) {
          ++parallel_visits;
          return true;
        });
    EXPECT_EQ(stats.schedules, serial);
    EXPECT_EQ(parallel_visits.load(), serial);
  }
}

TEST(Enumerate, FindScheduleWithOrder) {
  const Trace t = independent_procs(1, 1);
  const auto fwd = witness_could_happen_before(t, 0, 1,
                                               Semantics::kInterleaving);
  const auto bwd = witness_could_happen_before(t, 1, 0,
                                               Semantics::kInterleaving);
  ASSERT_TRUE(fwd.has_value());
  ASSERT_TRUE(bwd.has_value());
  EXPECT_EQ((*fwd)[0], 0u);
  EXPECT_EQ((*bwd)[0], 1u);
}

TEST(Enumerate, FindScheduleRespectsConstraints) {
  const Trace t = producer_consumer();
  // consume (3) before produce (0) is impossible.
  EXPECT_FALSE(
      witness_could_happen_before(t, 3, 0, Semantics::kInterleaving)
          .has_value());
  EXPECT_TRUE(witness_could_happen_before(t, 0, 3, Semantics::kInterleaving)
                  .has_value());
}

TEST(Enumerate, EmptyTrace) {
  TraceBuilder b;
  const Trace t = b.build();
  std::uint64_t visits = 0;
  const EnumerateStats stats =
      enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
        EXPECT_TRUE(s.empty());
        ++visits;
        return true;
      });
  EXPECT_EQ(stats.schedules, 1u);
  EXPECT_EQ(visits, 1u);
}

// ------------------------------------------------------------ feasibility

TEST(Feasibility, ChecksPermutation) {
  const Trace t = producer_consumer();
  EXPECT_FALSE(check_schedule(t, {0, 1, 2}).valid);       // wrong size
  EXPECT_FALSE(check_schedule(t, {0, 0, 1, 2}).valid);    // duplicate
  EXPECT_FALSE(check_schedule(t, {2, 0, 1, 3}).valid);    // P first
  EXPECT_TRUE(check_schedule(t, {0, 1, 2, 3}).valid);
}

TEST(Feasibility, F3Switch) {
  TraceBuilder b;
  const VarId x = b.variable("x");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w0", {}, {x});
  b.compute(p1, "w1", {}, {x});
  const Trace t = b.build();
  EXPECT_FALSE(check_schedule(t, {1, 0}).valid);
  EXPECT_TRUE(check_schedule(t, {1, 0}, {.respect_dependences = false}).valid);
}

TEST(Feasibility, ReorderTraceProducesValidTrace) {
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    RandomTraceConfig config;
    config.num_events = 8;
    const Trace t = random_trace(config, rng);
    enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
      std::vector<EventId> mapping;
      const Trace u = reorder_trace(t, s, &mapping);
      EXPECT_TRUE(validate_axioms(u).ok());
      EXPECT_EQ(u.num_events(), t.num_events());
      // Every original D edge must appear (renumbered) in the new D.
      for (const auto& [a, bb] : t.dependences()) {
        const DependenceEdge mapped{mapping[a], mapping[bb]};
        EXPECT_TRUE(std::find(u.dependences().begin(), u.dependences().end(),
                              mapped) != u.dependences().end());
      }
      return true;
    });
  }
}

TEST(Feasibility, ReorderRejectsInvalidSchedule) {
  const Trace t = producer_consumer();
  EXPECT_THROW(reorder_trace(t, {2, 0, 1, 3}), CheckError);
}

// --------------------------------------------------------- schedule space

TEST(ScheduleSpace, FeasibleNonEmptyForBuiltTraces) {
  Rng rng(29);
  for (int i = 0; i < 10; ++i) {
    const Trace t = random_trace({}, rng);
    EXPECT_TRUE(compute_can_precede(t).feasible_nonempty);
  }
}

TEST(ScheduleSpace, CanPrecedeMatchesEnumerationOnSmallTraces) {
  Rng rng(37);
  for (int i = 0; i < 12; ++i) {
    RandomTraceConfig config;
    config.num_events = 8;
    config.num_event_vars = i % 2;
    const Trace t = random_trace(config, rng);
    const CanPrecedeResult fast = compute_can_precede(t);
    ASSERT_TRUE(fast.feasible_nonempty);
    ASSERT_FALSE(fast.truncated);

    // Reference: brute-force over all schedules.
    std::vector<DynamicBitset> ref(t.num_events(),
                                   DynamicBitset(t.num_events()));
    enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
      DynamicBitset done(t.num_events());
      for (EventId e : s) {
        ref[e] |= done;
        done.set(e);
      }
      return true;
    });
    for (EventId e = 0; e < t.num_events(); ++e) {
      EXPECT_EQ(fast.can_precede[e], ref[e]) << "event " << e;
    }
  }
}

TEST(ScheduleSpace, StateCountIsBelowScheduleCount) {
  const Trace t = independent_procs(5, 5);
  const CanPrecedeResult r = compute_can_precede(t);
  // 6*6 = 36 states vs C(10,5) = 252 schedules.
  EXPECT_EQ(r.states_visited, 35u);  // complete state not memoized
  EXPECT_EQ(count_schedules(t), 252u);
}

TEST(ScheduleSpace, TruncationFlagged) {
  const Trace t = independent_procs(6, 6);
  ScheduleSpaceOptions options;
  options.max_states = 3;
  const CanPrecedeResult r = compute_can_precede(t, options);
  EXPECT_TRUE(r.truncated);
}

TEST(ScheduleSpace, DeadlockOnlyTraceHasEmptyF) {
  // A trace cannot itself encode an always-deadlocking execution (its
  // own observed order is feasible), so F is never empty for valid
  // traces; verify exactly that.
  Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    RandomTraceConfig config;
    config.num_event_vars = 2;
    config.num_semaphores = 0;
    const Trace t = random_trace(config, rng);
    EXPECT_TRUE(compute_can_precede(t).feasible_nonempty);
  }
}

}  // namespace
}  // namespace evord
