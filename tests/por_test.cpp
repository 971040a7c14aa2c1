// Partial-order reduction equivalence suite.
//
// The reduction (search/independence.hpp: sleep sets, source sets, wakeup
// frames and dynamic independence; engine plumbing in
// search/engine.hpp) promises:
//   * class enumeration delivers the SAME set of complete causal classes
//     with reduction on as off (only the per-class schedule multiplicity
//     shrinks),
//   * deadlock analysis keeps its verdict, its distinct-stuck-state
//     count, and a valid witness,
//   * exact causal/interval relation matrices are bit-identical,
//   * the parallel reduced walk is bit-identical to the serial reduced
//     walk at any worker count and under perturbed steal seeds.
// This suite pins all four on randomized and structured trace families.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "feasible/deadlock.hpp"
#include "feasible/enumerate.hpp"
#include "feasible/stepper.hpp"
#include "helpers.hpp"
#include "ordering/causal.hpp"
#include "ordering/class_enumerate.hpp"
#include "ordering/exact.hpp"
#include "search/independence.hpp"
#include "search/search.hpp"
#include "trace/builder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

using search::ReductionMode;

/// Canonical identity of one causal class: the concatenated closure rows
/// of C(sigma).  Two schedules map to the same key iff they induce the
/// same causal order.
using ClassKey = std::vector<std::uint64_t>;

ClassKey class_key(const Trace& trace, const std::vector<EventId>& schedule,
                   const CausalOptions& causal) {
  const TransitiveClosure tc = causal_closure(trace, schedule, causal);
  ClassKey key;
  for (NodeId u = 0; u < tc.num_nodes(); ++u) {
    const DynamicBitset& row = tc.descendants(u);
    for (std::size_t w = 0; w < row.word_count(); ++w) {
      key.push_back(row.word(w));
    }
  }
  return key;
}

std::set<ClassKey> enumerated_classes(const Trace& trace,
                                      ReductionMode reduction) {
  ClassEnumOptions options;
  options.reduction = reduction;
  std::set<ClassKey> out;
  enumerate_causal_classes(trace, options,
                           [&](std::size_t, const std::vector<EventId>& s,
                               const std::vector<DynamicBitset>&) {
                             out.insert(class_key(trace, s, options.causal));
                             return true;
                           });
  return out;
}

/// A mix of small trace families, deterministic per seed.
std::vector<std::pair<std::string, Trace>> test_traces(std::uint64_t seed) {
  std::vector<std::pair<std::string, Trace>> traces;
  {
    Rng rng(seed);
    testing::RandomTraceConfig config;
    config.num_events = 10;
    traces.emplace_back("sem", testing::random_trace(config, rng));
  }
  {
    Rng rng(seed + 100);
    testing::RandomTraceConfig config;
    config.num_semaphores = 1;
    config.num_event_vars = 2;
    config.num_events = 10;
    traces.emplace_back("event", testing::random_trace(config, rng));
  }
  {
    Rng rng(seed + 200);
    traces.emplace_back("forkjoin",
                        testing::random_fork_join_trace(3, 2, rng));
  }
  traces.emplace_back("widefork", wide_fork_trace(3, 2));
  {
    // Clear races the Wait: scheduling the Clear first wedges p1, so the
    // deadlock path is exercised on every seed.  Extra independent
    // computations widen the tree around the race.
    Rng rng(seed + 300);
    TraceBuilder b;
    const ObjectId e = b.event_var("e");
    const ProcId p1 = b.add_process();
    const ProcId p2 = b.add_process();
    b.post(b.root(), e);
    for (std::size_t i = 0; i < 1 + seed % 3; ++i) {
      b.compute(b.root(), "r" + std::to_string(i));
      if (rng.chance(0.5)) b.compute(p2, "q" + std::to_string(i));
    }
    b.wait(p1, e);
    b.clear(p2, e);
    traces.emplace_back("clearrace", b.build());
  }
  return traces;
}

TEST(Por, ClassSetsMatchUnreduced) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const auto& [label, trace] : test_traces(seed)) {
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      const std::set<ClassKey> full =
          enumerated_classes(trace, ReductionMode::kOff);
      EXPECT_EQ(enumerated_classes(trace, ReductionMode::kSourceWakeup),
                full);
    }
  }
}

TEST(Por, RepresentativeEnumerationPreservesClassesAndFeasibility) {
  const CausalOptions causal;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& [label, trace] : test_traces(seed)) {
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      EnumerateOptions full;
      std::set<ClassKey> full_classes;
      const EnumerateStats full_stats = enumerate_schedules(
          trace, full, [&](std::size_t, const std::vector<EventId>& s) {
            full_classes.insert(class_key(trace, s, causal));
            return true;
          });
      EnumerateOptions reduced;
      reduced.reduction = ReductionMode::kSourceWakeup;
      std::set<ClassKey> reduced_classes;
      const EnumerateStats reduced_stats = enumerate_schedules(
          trace, reduced, [&](std::size_t, const std::vector<EventId>& s) {
            reduced_classes.insert(class_key(trace, s, causal));
            return true;
          });
      EXPECT_EQ(reduced_classes, full_classes);
      EXPECT_LE(reduced_stats.schedules, full_stats.schedules);
      EXPECT_EQ(reduced_stats.schedules > 0, full_stats.schedules > 0);
    }
  }
}

void expect_valid_witness(const Trace& trace,
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

TEST(Por, DeadlockVerdictAndStuckCountMatchUnreduced) {
  std::size_t deadlocking = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [label, trace] : test_traces(seed)) {
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      DeadlockOptions off;
      off.reduction = ReductionMode::kOff;
      const DeadlockReport full = analyze_deadlocks(trace, off);
      const DeadlockReport reduced = analyze_deadlocks(trace, {});
      EXPECT_EQ(reduced.can_deadlock, full.can_deadlock);
      // Sleep + source sets preserve every transition-less state.
      EXPECT_EQ(reduced.stuck_states, full.stuck_states);
      EXPECT_LE(reduced.states_visited, full.states_visited);
      if (reduced.can_deadlock) {
        ++deadlocking;
        expect_valid_witness(trace, reduced.witness_prefix);
      }
    }
  }
  EXPECT_GT(deadlocking, 0u) << "no family exercised the deadlock path";
}

TEST(Por, ExactMatricesMatchUnreduced) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& [label, trace] : test_traces(seed)) {
      for (const Semantics semantics :
           {Semantics::kCausal, Semantics::kInterval}) {
        for (const bool data_edges : {true, false}) {
          std::ostringstream os;
          os << label << " seed " << seed << ' ' << to_string(semantics)
             << (data_edges ? " data" : " nodata");
          SCOPED_TRACE(os.str());
          ExactOptions off;
          off.reduction = ReductionMode::kOff;
          off.causal_data_edges = data_edges;
          ExactOptions on;
          on.causal_data_edges = data_edges;
          const OrderingRelations full =
              compute_exact(trace, semantics, off);
          const OrderingRelations reduced =
              compute_exact(trace, semantics, on);
          EXPECT_EQ(reduced.feasible_empty, full.feasible_empty);
          EXPECT_EQ(reduced.causal_classes, full.causal_classes);
          EXPECT_LE(reduced.schedules_seen, full.schedules_seen);
          for (const RelationKind kind : kAllRelationKinds) {
            EXPECT_EQ(reduced[kind], full[kind]) << to_string(kind);
          }
        }
      }
    }
  }
}

TEST(Por, ParallelReducedDeadlockBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& [label, trace] : test_traces(seed)) {
      const DeadlockReport serial = analyze_deadlocks(trace, {});
      for (const std::size_t threads : {2u, 4u, 8u}) {
        for (const std::uint64_t steal_seed : {1ull, 7ull, 12345ull}) {
          std::ostringstream os;
          os << label << " seed " << seed << " threads " << threads
             << " steal " << steal_seed;
          SCOPED_TRACE(os.str());
          DeadlockOptions options;
          options.num_threads = threads;
          options.steal.seed = steal_seed;
          options.steal.grain = 1;
          const DeadlockReport parallel = analyze_deadlocks(trace, options);
          EXPECT_EQ(parallel.can_deadlock, serial.can_deadlock);
          EXPECT_EQ(parallel.witness_prefix, serial.witness_prefix);
          EXPECT_EQ(parallel.stuck_states, serial.stuck_states);
          EXPECT_EQ(parallel.states_visited, serial.states_visited);
        }
      }
    }
  }
}

// ----- dynamic-independence (kSourceWakeup) excusal families -----------

/// Surplus-token V/V family: initial tokens plus early V's cover every
/// remaining P partway through the run, so late V/V commutations are
/// causally invisible (the tokens they push are never popped).  V/P
/// placement is randomized per seed.  `mutex_rounds` critical sections
/// per process (testing::add_mutex_rounds) lead the run when nonzero.
Trace vv_surplus_trace(std::uint64_t seed, std::size_t mutex_rounds = 0) {
  Rng rng(seed);
  TraceBuilder b;
  const ObjectId s =
      b.semaphore("s", /*initial=*/static_cast<int>(1 + seed % 2));
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  const ProcId p3 = b.add_process();
  testing::add_mutex_rounds(b, {p1, p2, p3}, mutex_rounds);
  b.sem_v(p1, s);
  if (rng.chance(0.6)) b.compute(p1, "a");
  b.sem_v(p1, s);
  b.sem_v(p2, s);
  if (rng.chance(0.5)) b.sem_v(p2, s);
  b.sem_p(p3, s);
  if (rng.chance(0.5)) b.compute(p3, "c");
  if (rng.chance(0.5)) b.sem_p(p3, s);
  b.sem_p(b.root(), s);
  return b.build();
}

/// Post/Wait/Clear family: racing Posts (often no-ops on an already
/// posted variable), Waits, and Clears from distinct processes.  The
/// conditional Post excusals and the unconditional Clear/Clear excusal
/// are all reachable; some interleavings wedge a Wait (deadlock path).
/// `mutex_rounds` as for vv_surplus_trace.
Trace post_clear_trace(std::uint64_t seed, std::size_t mutex_rounds = 0) {
  Rng rng(seed);
  TraceBuilder b;
  const ObjectId e = b.event_var("e", /*initially_posted=*/seed % 2 == 0);
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  const ProcId p3 = b.add_process();
  testing::add_mutex_rounds(b, {p1, p2, p3}, mutex_rounds);
  b.post(b.root(), e);
  b.post(p1, e);
  if (rng.chance(0.6)) b.wait(p2, e);
  if (rng.chance(0.5)) b.compute(p2, "x");
  b.clear(p3, e);
  if (rng.chance(0.5)) b.clear(p1, e);
  if (rng.chance(0.4)) b.post(p2, e);
  return b.build();
}

std::vector<std::pair<std::string, Trace>> excusal_traces(
    std::uint64_t seed, std::size_t mutex_rounds = 0) {
  std::vector<std::pair<std::string, Trace>> traces;
  traces.emplace_back("vv", vv_surplus_trace(seed, mutex_rounds));
  traces.emplace_back("postclear", post_clear_trace(seed, mutex_rounds));
  return traces;
}

/// Three critical sections per process ahead of the excusal families:
/// 26,000 to 110,000 reduced DFS entries each, so multi-worker sweeps
/// grow their helpers (search::kGrowAfterEntries) and steal.
constexpr std::size_t kGrowingRounds = 3;

TEST(Por, SourceWakeupClassSetsMatchOnExcusalFamilies) {
  // Randomized sweep pinning the dynamic excusals (surplus-token V/V,
  // posted Post/Post and Post/Wait, Clear/Clear) against brute force:
  // class enumeration with kSourceWakeup must deliver exactly the
  // unreduced class set, and the sweep must actually exercise the
  // excusal code paths (dyn_excused > 0 somewhere).
  std::uint64_t excused = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const auto& [label, trace] : excusal_traces(seed)) {
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      const std::set<ClassKey> full =
          enumerated_classes(trace, ReductionMode::kOff);
      ClassEnumOptions on;
      on.reduction = ReductionMode::kSourceWakeup;
      std::set<ClassKey> reduced;
      const ClassEnumStats stats = enumerate_causal_classes(
          trace, on,
          [&](std::size_t, const std::vector<EventId>& s,
              const std::vector<DynamicBitset>&) {
            reduced.insert(class_key(trace, s, on.causal));
            return true;
          });
      EXPECT_EQ(reduced, full);
      excused += stats.search.dyn_excused;
    }
  }
  EXPECT_GT(excused, 0u) << "no family reached a dynamic excusal";
}

TEST(Por, ScalarSourceClosurePreservesClassesPastSixtyFourProcesses) {
  // The source-set closure runs word-parallel over process masks up to
  // 64 processes and falls back to a per-process scan beyond.  A serial
  // chain of fork/join rounds reaches 71 processes while keeping at most
  // two active at once: round i forks child c_i, which races the root.
  // Every 20th round races the child's V against the root's V: the
  // root's next P takes the first pushed token (FIFO), so the causal
  // order has the edge V_child -> P exactly when the child's V came
  // first — two classes per such round.  The other rounds are
  // independent computes (one class).
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  for (std::size_t round = 0; round < 70; ++round) {
    const ProcId child = b.fork(b.root());
    const bool race = round % 20 == 0;
    if (race) {
      b.sem_v(child, s);
      b.sem_v(b.root(), s);
      b.sem_p(b.root(), s);
    } else {
      b.compute(child);
      b.compute(b.root());
    }
    b.join(b.root(), child);
    if (race) b.sem_p(b.root(), s);  // drain: every round starts empty
  }
  const Trace trace = b.build();
  ASSERT_GT(trace.num_processes(), 64u);
  ASSERT_FALSE(search::IndependenceRelation(trace).has_proc_masks());

  const std::set<ClassKey> full =
      enumerated_classes(trace, ReductionMode::kOff);
  EXPECT_EQ(full.size(), 16u);  // 2^4 racing rounds
  const std::set<ClassKey> reduced_classes =
      enumerated_classes(trace, ReductionMode::kSourceWakeup);
  EXPECT_TRUE(reduced_classes == full)
      << reduced_classes.size() << " of " << full.size() << " classes";

  ClassEnumOptions reduced;
  const ClassEnumStats stats = enumerate_causal_classes(
      trace, reduced, testing::accept_every_class);
  EXPECT_GT(stats.search.source_skipped, 0u);  // the closure chose
}

TEST(Por, SourceWakeupDeadlockAndExactMatchOnExcusalFamilies) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [label, trace] : excusal_traces(seed)) {
      SCOPED_TRACE(label + " seed " + std::to_string(seed));
      DeadlockOptions off;
      off.reduction = ReductionMode::kOff;
      const DeadlockReport full = analyze_deadlocks(trace, off);
      const DeadlockReport reduced = analyze_deadlocks(trace, {});
      EXPECT_EQ(reduced.can_deadlock, full.can_deadlock);
      EXPECT_EQ(reduced.stuck_states, full.stuck_states);
      if (reduced.can_deadlock) {
        expect_valid_witness(trace, reduced.witness_prefix);
      }
      ExactOptions exact_off;
      exact_off.reduction = ReductionMode::kOff;
      const OrderingRelations exact_full =
          compute_exact(trace, Semantics::kCausal, exact_off);
      const OrderingRelations exact_reduced =
          compute_exact(trace, Semantics::kCausal, {});
      EXPECT_EQ(exact_reduced.causal_classes, exact_full.causal_classes);
      for (const RelationKind kind : kAllRelationKinds) {
        EXPECT_EQ(exact_reduced[kind], exact_full[kind]) << to_string(kind);
      }
    }
  }
}

TEST(Por, ParallelReducedExactBitIdentical) {
  // The contended trace alone and the excusal families behind three
  // contended rounds: reduced sweeps that grow helpers at every worker
  // count, with deep splits (grain 1) and perturbed victim order.
  std::vector<std::pair<std::string, Trace>> traces =
      excusal_traces(/*seed=*/3, kGrowingRounds);
  traces.emplace_back("contended", testing::contended_trace(4, 2));
  for (const auto& [label, trace] : traces) {
    ExactOptions serial_options;  // reduction ON by default
    const OrderingRelations serial =
        compute_exact(trace, Semantics::kCausal, serial_options);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      for (const std::uint64_t steal_seed : {1ull, 7ull, 12345ull}) {
        std::ostringstream os;
        os << label << " threads " << threads << " steal " << steal_seed;
        SCOPED_TRACE(os.str());
        ExactOptions options;
        options.num_threads = threads;
        options.steal.seed = steal_seed;
        options.steal.grain = 1;  // provoke deep splits
        const OrderingRelations parallel =
            compute_exact(trace, Semantics::kCausal, options);
        EXPECT_EQ(parallel.feasible_empty, serial.feasible_empty);
        EXPECT_EQ(parallel.causal_classes, serial.causal_classes);
        EXPECT_EQ(parallel.schedules_seen, serial.schedules_seen);
        EXPECT_EQ(parallel.states_visited, serial.states_visited);
        for (const RelationKind kind : kAllRelationKinds) {
          EXPECT_EQ(parallel[kind], serial[kind]) << to_string(kind);
        }
        testing::expect_grew(parallel.search, threads);
      }
    }
  }
}

TEST(Por, WakeupDonationStressBitIdenticalAtEightWorkers) {
  // Wakeup-tree serialization across work stealing: grain 1 forces
  // splits at every depth, so donated SearchTask::sleep sets are derived
  // from the donor's wakeup frames throughout the walk.  Exercised at 8
  // workers (EVORD_MAX_THREADS=8 in the test environment) across
  // perturbed steal seeds on the excusal-heavy families, where the
  // frames actually differ from the static sleep sets, each behind three
  // contended rounds so the sweeps grow their helpers.
  for (const std::uint64_t seed : {1u, 3u}) {
    for (const auto& [label, trace] : excusal_traces(seed, kGrowingRounds)) {
      const OrderingRelations serial =
          compute_exact(trace, Semantics::kCausal, {});
      for (const std::uint64_t steal_seed : {1ull, 99ull, 31337ull}) {
        std::ostringstream os;
        os << label << " seed " << seed << " steal " << steal_seed;
        SCOPED_TRACE(os.str());
        ExactOptions options;
        options.num_threads = 8;
        options.steal.seed = steal_seed;
        options.steal.grain = 1;
        const OrderingRelations parallel =
            compute_exact(trace, Semantics::kCausal, options);
        EXPECT_EQ(parallel.causal_classes, serial.causal_classes);
        EXPECT_EQ(parallel.schedules_seen, serial.schedules_seen);
        for (const RelationKind kind : kAllRelationKinds) {
          EXPECT_EQ(parallel[kind], serial[kind]) << to_string(kind);
        }
        testing::expect_grew(parallel.search, 8);
      }
    }
  }
}

TEST(Por, WideForkReductionFactor) {
  // The acceptance benchmark family in miniature: pairwise-independent
  // children make the unreduced schedule tree explode while one
  // representative order suffices.
  const Trace t = wide_fork_trace(4, 2);
  ClassEnumOptions off;
  off.reduction = ReductionMode::kOff;
  const ClassEnumStats full = enumerate_causal_classes(
      t, off, testing::accept_every_class);
  const ClassEnumStats reduced = enumerate_causal_classes(
      t, {}, testing::accept_every_class);
  EXPECT_EQ(reduced.schedules_visited, 1u);  // a single causal class
  EXPECT_GE(full.distinct_prefixes,
            5 * reduced.search.states_visited);
  EXPECT_GT(reduced.search.source_skipped + reduced.search.sleep_pruned, 0u);
}

}  // namespace
}  // namespace evord
