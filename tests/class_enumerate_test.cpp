// Direct tests for the causal-class prefix-dedup enumerator (its
// integration into the exact solver is tested in ordering_test.cpp).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "feasible/enumerate.hpp"
#include "helpers.hpp"
#include "ordering/causal.hpp"
#include "ordering/class_enumerate.hpp"
#include "trace/builder.hpp"

namespace evord {
namespace {

using evord::testing::RandomTraceConfig;
using evord::testing::random_trace;

std::string class_fingerprint(const Trace& t,
                              const std::vector<EventId>& schedule,
                              const CausalOptions& options = {}) {
  const TransitiveClosure tc = causal_closure(t, schedule, options);
  std::string fp;
  for (EventId a = 0; a < t.num_events(); ++a) {
    fp += tc.descendants(a).to_string();
    fp += '|';
  }
  return fp;
}

TEST(ClassEnumerate, CoversEveryClassThePlainEnumeratorFinds) {
  Rng rng(211);
  for (int i = 0; i < 12; ++i) {
    RandomTraceConfig config;
    config.num_events = 9;
    config.num_event_vars = i % 3;
    const Trace t = random_trace(config, rng);

    std::set<std::string> plain_classes;
    enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
      plain_classes.insert(class_fingerprint(t, s));
      return true;
    });

    std::set<std::string> dedup_classes;
    std::uint64_t visits = 0;
    const ClassEnumStats stats = enumerate_causal_classes(
        t, {},
        [&](std::size_t, const std::vector<EventId>& s,
            const std::vector<DynamicBitset>&) {
          dedup_classes.insert(class_fingerprint(t, s));
          ++visits;
          return true;
        });
    EXPECT_EQ(dedup_classes, plain_classes) << "iteration " << i;
    EXPECT_EQ(stats.schedules_visited, visits);
    EXPECT_FALSE(stats.truncated);
  }
}

TEST(ClassEnumerate, VisitsNoMoreThanThePlainEnumerator) {
  Rng rng(223);
  for (int i = 0; i < 8; ++i) {
    RandomTraceConfig config;
    config.num_events = 10;
    const Trace t = random_trace(config, rng);
    const std::uint64_t plain = count_schedules(t);
    std::uint64_t dedup = 0;
    enumerate_causal_classes(t, {},
                             [&](std::size_t, const std::vector<EventId>&,
                                 const std::vector<DynamicBitset>&) {
                               ++dedup;
                               return true;
                             });
    EXPECT_LE(dedup, plain);
  }
}

TEST(ClassEnumerate, SyncOnlyModeCoversSyncOnlyClasses) {
  Rng rng(227);
  RandomTraceConfig config;
  config.num_events = 9;
  const Trace t = random_trace(config, rng);
  const CausalOptions sync_only{.include_data_edges = false};

  std::set<std::string> plain_classes;
  enumerate_schedules(t, {}, [&](std::size_t, const std::vector<EventId>& s) {
    plain_classes.insert(class_fingerprint(t, s, sync_only));
    return true;
  });
  std::set<std::string> dedup_classes;
  ClassEnumOptions options;
  options.causal = sync_only;
  enumerate_causal_classes(t, options,
                           [&](std::size_t, const std::vector<EventId>& s,
                               const std::vector<DynamicBitset>&) {
                             dedup_classes.insert(
                                 class_fingerprint(t, s, sync_only));
                             return true;
                           });
  EXPECT_EQ(dedup_classes, plain_classes);
}

TEST(ClassEnumerate, CountsDeadlockedPrefixes) {
  TraceBuilder b;
  const ObjectId e = b.event_var("e");
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  b.post(b.root(), e);
  b.wait(p1, e);
  b.clear(p2, e);
  const ClassEnumStats stats = enumerate_causal_classes(
      b.build(), {}, testing::accept_every_class);
  EXPECT_GT(stats.deadlocked_prefixes, 0u);
  EXPECT_GT(stats.schedules_visited, 0u);
}

TEST(ClassEnumerate, BudgetsAndVisitorStop) {
  TraceBuilder b;
  const ProcId p1 = b.add_process();
  for (int i = 0; i < 5; ++i) {
    b.compute(b.root(), "");
    b.compute(p1, "");
  }
  const Trace t = b.build();
  ClassEnumOptions tight;
  tight.max_states = 3;
  const ClassEnumStats truncated = enumerate_causal_classes(
      t, tight, testing::accept_every_class);
  EXPECT_TRUE(truncated.truncated);

  const ClassEnumStats stopped = enumerate_causal_classes(
      t, {},
      [](std::size_t, const std::vector<EventId>&,
         const std::vector<DynamicBitset>&) { return false; });
  EXPECT_TRUE(stopped.stopped_by_visitor);
  EXPECT_EQ(stopped.schedules_visited, 1u);
}

TEST(ClassEnumerate, PrunesReportedInStats) {
  // Independent processes: almost every prefix is a duplicate.
  TraceBuilder b;
  const ProcId p1 = b.add_process();
  const ProcId p2 = b.add_process();
  for (int i = 0; i < 3; ++i) {
    b.compute(b.root(), "");
    b.compute(p1, "");
    b.compute(p2, "");
  }
  const Trace t = b.build();
  // Default reduction: the fully-independent trace collapses to (nearly)
  // a single chain, so the savings show up as reduction counters rather
  // than prefix dedup hits.
  const ClassEnumStats stats = enumerate_causal_classes(
      t, {}, testing::accept_every_class);
  EXPECT_GT(stats.search.sleep_pruned + stats.search.source_skipped, 0u);
  EXPECT_GT(stats.distinct_prefixes, 0u);
  EXPECT_LT(stats.schedules_visited, 1680u);  // 9!/(3!)^3 plain schedules

  // Reduction off: the prefix dedup does the pruning.
  ClassEnumOptions unreduced;
  unreduced.reduction = search::ReductionMode::kOff;
  const ClassEnumStats off = enumerate_causal_classes(
      t, unreduced, testing::accept_every_class);
  EXPECT_GT(off.prefixes_pruned, 0u);
  EXPECT_EQ(off.search.sleep_pruned, 0u);
  EXPECT_EQ(off.search.source_skipped, 0u);
  EXPECT_GE(off.schedules_visited, stats.schedules_visited);
}

// The visitor's ancestor rows are the schedule's causal order: for every
// delivered schedule, rows[b] = {a : a -> b} is exactly the transpose of
// causal_closure(), with data edges on and off — serial on small random
// traces, and from every worker of a sweep that grows helpers.
TEST(ClassEnumerate, AncestorRowsAreTheTransposedCausalClosure) {
  std::vector<std::pair<Trace, std::size_t>> runs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    testing::RandomTraceConfig config;
    config.num_events = 12;
    config.num_event_vars = seed % 2;
    runs.emplace_back(testing::random_trace(config, rng), 1);
  }
  {
    Rng rng(5);
    runs.emplace_back(testing::random_fork_join_trace(3, 3, rng), 1);
  }
  runs.emplace_back(testing::contended_trace(4, 2), 4);
  for (const auto& [t, threads] : runs) {
    for (const bool data_edges : {true, false}) {
      ClassEnumOptions options;
      options.causal.include_data_edges = data_edges;
      options.num_threads = threads;
      std::vector<std::uint64_t> checked(threads, 0);
      std::vector<std::uint64_t> wrong(threads, 0);
      const ClassEnumStats stats = enumerate_causal_classes(
          t, options,
          [&](std::size_t slot, const std::vector<EventId>& s,
              const std::vector<DynamicBitset>& ancestors) {
            const TransitiveClosure tc = causal_closure(t, s, options.causal);
            for (EventId a = 0; a < t.num_events(); ++a) {
              for (EventId b = 0; b < t.num_events(); ++b) {
                if (ancestors[b].test(a) != tc.reachable(a, b)) ++wrong[slot];
              }
            }
            ++checked[slot];
            return true;
          });
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < threads; ++i) {
        EXPECT_EQ(wrong[i], 0u) << "slot " << i << " data edges "
                                << data_edges;
        total += checked[i];
      }
      EXPECT_EQ(total, stats.schedules_visited);
      if (threads > 1) testing::expect_grew(stats.search, threads);
    }
  }
}

}  // namespace
}  // namespace evord
