// Serial vs parallel exact engine equivalence.
//
// A multi-worker causal or interval sweep starts on the calling thread
// and grows its helpers only past search::kGrowAfterEntries DFS entries.
// The workers share one sharded fingerprint set, so every distinct
// prefix state is expanded exactly once and — absent budgets — the
// results are bit-identical to the serial engine's.  These tests pin that
// contract on traces whose sweeps grow (workload-generator shapes led by
// a few contended critical sections), across all three semantics and
// both settings of causal_data_edges, and pin that a sweep below the
// threshold starts no thread at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "ordering/class_enumerate.hpp"
#include "ordering/exact.hpp"
#include "ordering/relations.hpp"
#include "search/scheduler.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

OrderingRelations analyze(const Trace& trace, Semantics semantics,
                          bool data_edges, std::size_t threads) {
  ExactOptions options;
  options.causal_data_edges = data_edges;
  options.num_threads = threads;
  return compute_exact(trace, semantics, options);
}

void expect_identical(const OrderingRelations& serial,
                      const OrderingRelations& parallel,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(serial.feasible_empty, parallel.feasible_empty);
  EXPECT_EQ(serial.truncated, parallel.truncated);
  EXPECT_EQ(serial.causal_classes, parallel.causal_classes);
  EXPECT_EQ(serial.schedules_seen, parallel.schedules_seen);
  EXPECT_EQ(serial.states_visited, parallel.states_visited);
  for (const RelationKind kind : kAllRelationKinds) {
    EXPECT_EQ(serial[kind], parallel[kind]) << to_string(kind);
  }
}

/// The enumeration-based semantics grew every requested worker; the
/// interleaving sweep stays serial.
void expect_workers(const OrderingRelations& r, Semantics semantics,
                    std::size_t threads) {
  if (semantics == Semantics::kInterleaving) {
    EXPECT_TRUE(r.search.workers.empty());
  } else {
    testing::expect_grew(r.search, threads);
  }
}

void check_trace(const Trace& trace, const std::string& label) {
  for (const Semantics semantics :
       {Semantics::kInterleaving, Semantics::kCausal, Semantics::kInterval}) {
    for (const bool data_edges : {true, false}) {
      const OrderingRelations serial =
          analyze(trace, semantics, data_edges, 1);
      const OrderingRelations parallel =
          analyze(trace, semantics, data_edges, 4);
      std::ostringstream os;
      os << label << " / " << to_string(semantics)
         << (data_edges ? " / data-edges" : " / no-data-edges");
      expect_identical(serial, parallel, os.str());
      SCOPED_TRACE(os.str());
      EXPECT_TRUE(serial.search.workers.empty());
      expect_workers(parallel, semantics, 4);
    }
  }
}

TEST(ParallelExact, MatchesSerialOnRandomSemaphoreTraces) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    testing::RandomTraceConfig config;
    config.num_events = 6;
    config.mutex_rounds = 3;
    const Trace trace = testing::random_trace(config, rng);
    check_trace(trace, "sem-trace seed " + std::to_string(seed));
  }
}

TEST(ParallelExact, MatchesSerialOnRandomEventTraces) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    testing::RandomTraceConfig config;
    config.num_events = 6;
    config.num_semaphores = 1;
    config.num_event_vars = 2;
    config.mutex_rounds = 3;
    const Trace trace = testing::random_trace(config, rng);
    check_trace(trace, "event-trace seed " + std::to_string(seed));
  }
}

TEST(ParallelExact, MatchesSerialOnForkJoin) {
  Rng rng(7);
  const Trace trace = testing::random_fork_join_trace(
      /*num_children=*/3, /*events_per_child=*/2, rng, /*mutex_rounds=*/3);
  check_trace(trace, "fork-join");
}

TEST(ParallelExact, MatchesSerialOnPipeline) {
  // A three-stage pipeline passing `items` tokens down semaphores, every
  // stage doing its work inside one shared lock: the lock orders give the
  // causal classes.
  constexpr std::size_t kItems = 5;
  TraceBuilder b;
  const ObjectId lock = b.semaphore("lock", /*initial=*/1);
  const ObjectId q1 = b.semaphore("q1");
  const ObjectId q2 = b.semaphore("q2");
  const ProcId stages[] = {b.root(), b.add_process(), b.add_process()};
  for (std::size_t item = 0; item < kItems; ++item) {
    for (std::size_t s = 0; s < std::size(stages); ++s) {
      if (s == 1) b.sem_p(stages[s], q1);
      if (s == 2) b.sem_p(stages[s], q2);
      b.sem_p(stages[s], lock);
      b.compute(stages[s], "");
      b.sem_v(stages[s], lock);
      if (s == 0) b.sem_v(stages[s], q1);
      if (s == 1) b.sem_v(stages[s], q2);
    }
  }
  check_trace(b.build(), "pipeline");
}

TEST(ParallelExact, HardwareConcurrencyRequestMatchesSerial) {
  const Trace trace = testing::contended_trace(4, 2);
  const OrderingRelations serial =
      analyze(trace, Semantics::kCausal, /*data_edges=*/true, 1);
  // num_threads == 0 resolves to the hardware concurrency.
  const OrderingRelations parallel =
      analyze(trace, Semantics::kCausal, /*data_edges=*/true, 0);
  expect_identical(serial, parallel, "hardware-concurrency");
  if (search::resolve_num_threads(0) > 1) {
    expect_workers(parallel, Semantics::kCausal, 0);
  }
}

/// Threads of this process, from /proc (Linux); 0 where it is missing.
std::size_t process_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

// A sweep that ends below search::kGrowAfterEntries runs on the calling
// thread alone, whatever num_threads asks for: it matches serial,
// reports no workers and starts no thread.
TEST(ParallelExact, SweepBelowThresholdStartsNoThread) {
  Rng rng(11);
  testing::RandomTraceConfig config;
  config.num_events = 12;
  const Trace trace = testing::random_trace(config, rng);
  for (const Semantics semantics : {Semantics::kCausal, Semantics::kInterval}) {
    for (const bool data_edges : {true, false}) {
      const OrderingRelations serial =
          analyze(trace, semantics, data_edges, 1);
      const OrderingRelations wide = analyze(trace, semantics, data_edges, 8);
      expect_identical(serial, wide, to_string(semantics));
      EXPECT_TRUE(wide.search.workers.empty());
      EXPECT_LT(wide.search.states_visited, search::kGrowAfterEntries);
    }
  }

  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t most = 0;
  bool off_thread = false;
  ClassEnumOptions options;
  options.num_threads = 8;
  const ClassEnumStats stats = enumerate_causal_classes(
      trace, options,
      [&](std::size_t slot, const std::vector<EventId>&,
          const std::vector<DynamicBitset>&) {
        most = std::max(most, process_threads());
        off_thread = off_thread || slot != 0 ||
                     std::this_thread::get_id() != caller;
        return true;
      });
  EXPECT_GT(stats.schedules_visited, 0u);
  EXPECT_TRUE(stats.search.workers.empty());
  EXPECT_FALSE(off_thread);
  EXPECT_EQ(most, before);
}

}  // namespace
}  // namespace evord
