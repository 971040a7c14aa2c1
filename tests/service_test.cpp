// Analysis-as-a-service layer (src/service/): trace registry dedup,
// cross-query result cache, warm sessions, batched pair queries, cached
// anytime verdicts — plus the equivalence sweep pinning that every
// answer served from the cache is bit-identical to a fresh, uncached
// computation, including under memory budgets, deterministic fault
// injection, and cache eviction (a hit after eviction recomputes
// correctly).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "feasible/deadlock.hpp"
#include "helpers.hpp"
#include "race/race_detector.hpp"
#include "service/registry.hpp"
#include "service/result_cache.hpp"
#include "service/session.hpp"
#include "trace/builder.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace evord {
namespace {

using service::AnalysisSession;
using service::CacheKey;
using service::CacheStats;
using service::PairQuery;
using service::QueryKind;
using service::RegistryStats;
using service::ResultCache;
using service::SessionStats;
using service::TraceRegistry;

constexpr std::array<Semantics, 3> kAllSemantics{Semantics::kInterleaving,
                                                 Semantics::kCausal,
                                                 Semantics::kInterval};

/// The quickstart trace: root writes x, V(s); p1 P(s), reads x.
Trace quickstart_trace(const char* var_name = "x") {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  const VarId x = b.variable(var_name);
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w", {}, {x});
  b.sem_v(b.root(), s);
  b.sem_p(p1, s);
  b.compute(p1, "r", {x}, {});
  return b.build();
}

/// The classic crossing-locks trace: both processes acquire {s, t} in
/// opposite orders, so an alternate schedule can wedge even though the
/// observed one completes.
Trace wedgeable_trace() {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s", /*initial=*/1);
  const ObjectId t = b.semaphore("t", /*initial=*/1);
  const ProcId p1 = b.add_process();
  b.sem_p(b.root(), s);
  b.sem_p(b.root(), t);
  b.sem_v(b.root(), t);
  b.sem_v(b.root(), s);
  b.sem_p(p1, t);
  b.sem_p(p1, s);
  b.sem_v(p1, s);
  b.sem_v(p1, t);
  return b.build();
}

void expect_same_relations(const OrderingRelations& a,
                           const OrderingRelations& b) {
  EXPECT_EQ(a.semantics, b.semantics);
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.feasible_empty, b.feasible_empty);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.schedules_seen, b.schedules_seen);
  EXPECT_EQ(a.causal_classes, b.causal_classes);
  EXPECT_EQ(a.deadlocked_prefixes, b.deadlocked_prefixes);
  EXPECT_EQ(a.states_visited, b.states_visited);
  for (std::size_t k = 0; k < kNumRelationKinds; ++k) {
    EXPECT_TRUE(a.matrices[k] == b.matrices[k])
        << "matrix " << to_string(kAllRelationKinds[k]) << " differs";
  }
}

void expect_same_races(const RaceReport& a, const RaceReport& b) {
  EXPECT_EQ(a.detector, b.detector);
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.races.size(), b.races.size());
  for (std::size_t i = 0; i < a.races.size(); ++i) {
    EXPECT_EQ(a.races[i].a, b.races[i].a);
    EXPECT_EQ(a.races[i].b, b.races[i].b);
    EXPECT_EQ(a.races[i].hidden_in_observed, b.races[i].hidden_in_observed);
  }
}

/// Every ordered pair of distinct events of `trace`.
std::vector<std::pair<EventId, EventId>> ordered_pairs(const Trace& trace) {
  std::vector<std::pair<EventId, EventId>> pairs;
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

// ------------------------------------------------------------ fingerprint

TEST(TraceFingerprint, IgnoresNamesAndLabels) {
  const Trace a = quickstart_trace("x");
  const Trace b = quickstart_trace("y");  // different variable NAME only
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(TraceFingerprint, SensitiveToStructure) {
  const Trace base = quickstart_trace();
  // Different operation order (V before the write).
  TraceBuilder b1;
  const ObjectId s1 = b1.semaphore("s");
  const VarId x1 = b1.variable("x");
  const ProcId q1 = b1.add_process();
  b1.sem_v(b1.root(), s1);
  b1.compute(b1.root(), "w", {}, {x1});
  b1.sem_p(q1, s1);
  b1.compute(q1, "r", {x1}, {});
  EXPECT_NE(base.fingerprint(), b1.build().fingerprint());
  // Different data accesses (read instead of write).
  TraceBuilder b2;
  const ObjectId s2 = b2.semaphore("s");
  const VarId x2 = b2.variable("x");
  const ProcId q2 = b2.add_process();
  b2.compute(b2.root(), "w", {x2}, {});
  b2.sem_v(b2.root(), s2);
  b2.sem_p(q2, s2);
  b2.compute(q2, "r", {x2}, {});
  EXPECT_NE(base.fingerprint(), b2.build().fingerprint());
}

TEST(TraceFingerprint, StableAcrossCopies) {
  Rng rng(11);
  const Trace t = testing::random_trace({}, rng);
  const Trace copy = t;
  EXPECT_EQ(t.fingerprint(), copy.fingerprint());
}

// --------------------------------------------------------------- registry

TEST(TraceRegistry, DedupsStructurallyIdenticalTraces) {
  TraceRegistry registry;
  const auto first = registry.register_trace(quickstart_trace("x"));
  const auto second = registry.register_trace(quickstart_trace("y"));
  EXPECT_EQ(first.get(), second.get());  // ONE shared entry
  EXPECT_EQ(registry.num_traces(), 1u);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.traces_registered, 2u);
  EXPECT_EQ(stats.trace_dedup_hits, 1u);
  EXPECT_EQ(registry.find(first->fingerprint()).get(), first.get());
  EXPECT_EQ(registry.find(~first->fingerprint()), nullptr);
}

TEST(TraceRegistry, DistinctTracesGetDistinctEntries) {
  TraceRegistry registry;
  const auto a = registry.register_trace(quickstart_trace());
  const auto b = registry.register_trace(wedgeable_trace());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(registry.num_traces(), 2u);
  EXPECT_EQ(registry.stats().trace_dedup_hits, 0u);
}

TEST(TraceRegistry, MemoizesSessionsPerTraceAndOptions) {
  TraceRegistry registry;
  const auto s1 = registry.session(quickstart_trace("x"));
  const auto s2 = registry.session(quickstart_trace("y"));  // same structure
  EXPECT_EQ(s1.get(), s2.get());  // same fingerprint x options digest
  EXPECT_EQ(registry.num_sessions(), 1u);
  EXPECT_EQ(registry.stats().session_hits, 1u);
  EXPECT_EQ(s1->cache().get(), registry.cache().get());

  ExactOptions other;
  other.respect_dependences = false;
  const auto s3 = registry.session(quickstart_trace(), other);
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_EQ(registry.num_sessions(), 2u);
  // All sessions share the registry's one result cache.
  EXPECT_EQ(s3->cache().get(), registry.cache().get());
}

TEST(TraceRegistry, SessionValidatesAxioms) {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  b.sem_p(b.root(), s);  // P with count 0: invalid
  TraceRegistry registry;
  EXPECT_THROW(registry.session(b.build_unchecked()), CheckError);
}

TEST(TraceRegistry, FingerprintLookupServesTheMemoizedSession) {
  TraceRegistry registry;
  const Trace trace = quickstart_trace();
  const std::uint64_t fp = trace.fingerprint();
  EXPECT_EQ(registry.session_for(fp, {}), nullptr);  // never registered
  const auto session = registry.session(trace);
  const RegistryStats before = registry.stats();
  // The same session object, and no registration is counted.
  EXPECT_EQ(registry.session_for(fp, {}).get(), session.get());
  const RegistryStats after = registry.stats();
  EXPECT_EQ(after.traces_registered, before.traces_registered);
  EXPECT_EQ(after.trace_dedup_hits, before.trace_dedup_hits);
  EXPECT_EQ(after.session_hits, before.session_hits + 1);
  // A new options digest creates its session on first use, and
  // registering the trace again finds that one.
  ExactOptions other;
  other.respect_dependences = false;
  const auto created = registry.session_for(fp, other);
  ASSERT_NE(created, nullptr);
  EXPECT_NE(created.get(), session.get());
  EXPECT_EQ(registry.session(trace, other).get(), created.get());
  EXPECT_EQ(registry.num_sessions(), 2u);
}

// ------------------------------------------------------------ result cache

TEST(ResultCache, LruEvictionOrderAndStats) {
  // Two entries of 104 bytes (8 payload + 96 overhead) fit strictly
  // under the budget; a third trips the accountant's `charged >= limit`
  // convention and evicts the least recently used.
  ResultCache cache(/*max_bytes=*/256);
  const auto key = [](std::uint64_t i) {
    CacheKey k;
    k.trace_fingerprint = i;
    return k;
  };
  cache.put<int>(key(1), 1, 8);
  cache.put<int>(key(2), 2, 8);
  EXPECT_EQ(cache.bytes(), 208u);
  ASSERT_NE(cache.get<int>(key(1)), nullptr);  // 1 is now most recent
  cache.put<int>(key(3), 3, 8);                // evicts 2, not 1
  EXPECT_EQ(cache.get<int>(key(2)), nullptr);
  ASSERT_NE(cache.get<int>(key(1)), nullptr);
  ASSERT_NE(cache.get<int>(key(3)), nullptr);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCache, EvictedValueSurvivesForHolders) {
  ResultCache cache(/*max_bytes=*/150);  // one 104-byte entry fits
  CacheKey a;
  a.trace_fingerprint = 1;
  CacheKey b;
  b.trace_fingerprint = 2;
  const std::shared_ptr<const int> held = cache.put<int>(a, 41, 8);
  cache.put<int>(b, 42, 8);  // evicts a
  EXPECT_EQ(cache.get<int>(a), nullptr);
  EXPECT_EQ(*held, 41);  // the holder's pointer stays valid
}

TEST(ResultCache, ReplaceInPlaceRechargesBytes) {
  ResultCache cache(/*max_bytes=*/0);  // unlimited
  CacheKey k;
  cache.put<int>(k, 1, 100);
  EXPECT_EQ(cache.bytes(), 196u);
  cache.put<int>(k, 2, 10);  // same key: replaced, not duplicated
  EXPECT_EQ(cache.bytes(), 106u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(*cache.get<int>(k), 2);
}

TEST(ResultCache, ShrinkingBudgetEvictsDownToIt) {
  ResultCache cache(/*max_bytes=*/0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    CacheKey k;
    k.trace_fingerprint = i;
    cache.put<int>(k, static_cast<int>(i), 8);
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  // 4 x 104 charged == the new limit trips `charged >= limit`, so the
  // cache settles at three resident entries.
  cache.set_budget_bytes(4 * 104);
  EXPECT_LT(cache.bytes(), cache.budget_bytes());
  EXPECT_EQ(cache.stats().entries, 3u);
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, CachedResultsCountTheirSearchStatsOnce) {
  // A result's sizeof already covers its embedded SearchStats, so only
  // the stats' heap part (the depth histogram) is added on top.
  const auto histogram = [](const search::SearchStats& stats) {
    EXPECT_FALSE(stats.depth_states.empty());
    return stats.depth_states.capacity() * sizeof(std::uint64_t);
  };
  const Trace wedged = wedgeable_trace();
  const OrderingRelations relations =
      compute_exact(wedged, Semantics::kCausal, {});
  std::uint64_t matrices = 0;
  for (const RelationMatrix& m : relations.matrices) {
    matrices += m.approx_bytes();
  }
  EXPECT_EQ(relations.approx_bytes(),
            sizeof(relations) + matrices + histogram(relations.search));

  const DeadlockReport deadlocks = analyze_deadlocks(wedged, {});
  ASSERT_TRUE(deadlocks.can_deadlock);
  EXPECT_EQ(deadlocks.approx_bytes(),
            sizeof(deadlocks) +
                deadlocks.witness_prefix.capacity() * sizeof(EventId) +
                histogram(deadlocks.search));

  TraceBuilder b;  // two unsynchronized writes of x: one race
  const VarId x = b.variable("x");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w0", {}, {x});
  b.compute(p1, "w1", {}, {x});
  const RaceReport races = detect_races_exact(b.build(), {});
  ASSERT_FALSE(races.races.empty());
  EXPECT_EQ(races.approx_bytes(),
            sizeof(races) + races.races.capacity() * sizeof(Race) +
                histogram(races.search));
}

// ----------------------------------------------------- session: pure hits

TEST(AnalysisSession, RepeatedQueriesArePureCacheHits) {
  AnalysisSession session(std::make_shared<const Trace>(wedgeable_trace()));
  for (const Semantics s : kAllSemantics) session.relations(s);
  session.deadlocks();
  session.races(RaceDetector::kExact);
  session.races(RaceDetector::kGuaranteed);
  const SessionStats warm = session.stats();
  EXPECT_GT(warm.states_explored, 0u);
  EXPECT_GT(warm.computations, 0u);

  // Every repeat must be a pure hit: zero new states explored.
  for (const Semantics s : kAllSemantics) session.relations(s);
  session.deadlocks();
  session.races(RaceDetector::kExact);
  session.races(RaceDetector::kGuaranteed);
  session.pair_query({RelationKind::kMHB, 0, 3, Semantics::kCausal});
  const SessionStats again = session.stats();
  EXPECT_EQ(again.states_explored, warm.states_explored);
  EXPECT_EQ(again.computations, warm.computations);
  EXPECT_EQ(again.sweeps, warm.sweeps);
  EXPECT_EQ(again.cache_hits, warm.cache_hits + 7);
}

TEST(AnalysisSession, IdenticalTracesShareEverything) {
  TraceRegistry registry;
  const auto first = registry.session(quickstart_trace("x"));
  const auto second = registry.session(quickstart_trace("y"));
  const PairQuery mhb{RelationKind::kMHB, 0, 3, Semantics::kCausal};
  EXPECT_TRUE(first->pair_query(mhb));
  const SessionStats warm = second->stats();
  // The second trace's query lands on the session the first one
  // already warmed: pure hit, zero new states.
  EXPECT_TRUE(second->pair_query(mhb));
  const SessionStats again = second->stats();
  EXPECT_EQ(again.states_explored, warm.states_explored);
  EXPECT_EQ(again.cache_hits, warm.cache_hits + 1);
}

TEST(AnalysisSession, RacesCachedPerDetector) {
  // The session computes the exponential exact detection once per
  // detector, however often races() is called.
  AnalysisSession session(std::make_shared<const Trace>(quickstart_trace()));
  const auto r1 = session.races(RaceDetector::kExact);
  const SessionStats warm = session.stats();
  const auto r2 = session.races(RaceDetector::kExact);
  expect_same_races(*r1, *r2);
  EXPECT_EQ(session.stats().computations, warm.computations);
  // A different detector is its own cache slot.
  session.races(RaceDetector::kGuaranteed);
  EXPECT_EQ(session.stats().computations, warm.computations + 1);
}

// --------------------------------------------------------- batched pairs

TEST(AnalysisSession, QueryBatchCoalescesSweeps) {
  AnalysisSession session(std::make_shared<const Trace>(quickstart_trace()));
  std::vector<PairQuery> queries;
  for (EventId a = 0; a < 4; ++a) {
    for (EventId b = 0; b < 4; ++b) {
      if (a == b) continue;
      queries.push_back({RelationKind::kMHB, a, b, Semantics::kCausal});
      queries.push_back({RelationKind::kCHB, a, b, Semantics::kInterleaving});
      queries.push_back({RelationKind::kCCW, a, b, Semantics::kCausal});
    }
  }
  const std::vector<bool> answers = session.query_batch(queries);
  const SessionStats stats = session.stats();
  // 36 pair queries, 2 distinct semantics: exactly 2 sweeps.
  EXPECT_EQ(stats.sweeps, 2u);
  EXPECT_EQ(stats.batched_pairs, queries.size());

  // Answers must match a fresh exact computation, pair by pair.
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const PairQuery& q = queries[i];
    EXPECT_EQ(answers[i], compute_exact(session.trace(), q.semantics)
                              .holds(q.relation, q.a, q.b))
        << "query " << i;
  }
}

// ------------------------------------------------- in-flight coalescing

TEST(ServiceCoalescing, ConcurrentIdenticalQueriesShareOneSweep) {
  const Trace trace = wedgeable_trace();
  // The cost of exactly ONE sweep, measured on a single-threaded twin.
  AnalysisSession baseline(std::make_shared<const Trace>(trace));
  baseline.relations(Semantics::kCausal);
  const std::uint64_t one_sweep_states = baseline.stats().states_explored;

  AnalysisSession session(std::make_shared<const Trace>(trace));
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const OrderingRelations>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&session, &results, i] {
        results[static_cast<std::size_t>(i)] =
            session.relations(Semantics::kCausal);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get()) << "all callers share ONE result";
  }
  const SessionStats stats = session.stats();
  // However the threads interleaved, exactly one of them computed; the
  // other seven either coalesced onto the in-flight sweep or hit the
  // cache afterwards — their states_explored contribution is zero.
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.sweeps, 1u);
  EXPECT_EQ(stats.states_explored, one_sweep_states);
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_LE(stats.coalesced, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ServiceCoalescing, DistinctQueriesOverlapSafely) {
  // Six different queries of four kinds in flight at once: each
  // computes exactly once (the session mutex is released during the
  // engines' work, so they genuinely overlap), and every answer matches
  // a fresh computation.
  Rng rng(13);
  testing::RandomTraceConfig config;
  config.num_events = 10;
  const Trace trace = testing::random_trace(config, rng);
  AnalysisSession session(std::make_shared<const Trace>(trace));
  {
    std::vector<std::thread> threads;
    for (const Semantics s : kAllSemantics) {
      threads.emplace_back([&session, s] { session.relations(s); });
    }
    threads.emplace_back([&] { session.deadlocks(); });
    threads.emplace_back([&] { session.races(RaceDetector::kExact); });
    threads.emplace_back(
        [&] { session.races(RaceDetector::kGuaranteed); });
    for (std::thread& t : threads) t.join();
  }
  // Seven computations: exact races derive from their own race-semantics
  // relations sweep (causal_data_edges is on in the session's options).
  EXPECT_EQ(session.stats().computations, 7u);
  for (const Semantics s : kAllSemantics) {
    expect_same_relations(*session.relations(s), compute_exact(trace, s));
  }
  EXPECT_EQ(session.deadlocks()->can_deadlock,
            analyze_deadlocks(trace, {}).can_deadlock);
  for (const RaceDetector d : {RaceDetector::kExact, RaceDetector::kGuaranteed}) {
    expect_same_races(*session.races(d), detect_races(trace, d));
  }
  EXPECT_EQ(session.stats().computations, 7u);  // verification = pure hits
}

// ---------------------------------------------------- equivalence sweep

/// Cache-hit answers must be bit-identical to a fresh, uncached
/// computation across all query kinds x semantics x randomized
/// workloads.
TEST(ServiceEquivalence, CacheHitsMatchFreshAnalyzerOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    testing::RandomTraceConfig config;
    config.num_processes = 3;
    config.num_semaphores = 2;
    config.num_variables = 2;
    config.num_events = 10;
    const Trace trace = testing::random_trace(config, rng);

    TraceRegistry registry;
    const auto session = registry.session(trace);

    for (const Semantics s : kAllSemantics) {
      const auto cold = session->relations(s);
      const auto hit = session->relations(s);  // second call: cache hit
      EXPECT_EQ(cold.get(), hit.get());
      expect_same_relations(*hit, compute_exact(trace, s));
    }
    {
      const DeadlockReport expected = analyze_deadlocks(trace, {});
      session->deadlocks();                    // cold
      const auto hit = session->deadlocks();   // cache hit
      EXPECT_EQ(hit->can_deadlock, expected.can_deadlock);
      EXPECT_EQ(hit->stuck_states, expected.stuck_states);
      EXPECT_EQ(hit->states_visited, expected.states_visited);
      EXPECT_EQ(hit->truncated, expected.truncated);
      EXPECT_EQ(hit->witness_prefix, expected.witness_prefix);
    }
    for (const RaceDetector d :
         {RaceDetector::kExact, RaceDetector::kObserved,
          RaceDetector::kGuaranteed}) {
      const RaceReport expected = detect_races(trace, d);
      session->races(d);                    // cold
      const auto hit = session->races(d);   // cache hit
      expect_same_races(*hit, expected);
    }
  }
}

TEST(ServiceEquivalence, MemoryBudgetedAnswersMatchFresh) {
  Rng rng(3);
  testing::RandomTraceConfig config;
  config.num_events = 18;  // ~135 interleaving states
  const Trace trace = testing::random_trace(config, rng);

  // Generous budget: untruncated, cached, equal to an unbudgeted fresh
  // run's matrices (budgets only change provenance when they don't trip).
  ExactOptions roomy;
  roomy.max_memory_bytes = 1ull << 30;
  {
    AnalysisSession session(std::make_shared<const Trace>(trace), roomy);
    const auto r = session.relations(Semantics::kCausal);
    ASSERT_FALSE(r->truncated);
    expect_same_relations(*session.relations(Semantics::kCausal),
                          compute_exact(trace, Semantics::kCausal, roomy));
    EXPECT_EQ(session.stats().cache_hits, 1u);
  }

  // Starved budget: truncated results are NEVER cached — every call
  // recomputes (deterministically), so one starved run cannot poison
  // later callers.
  ExactOptions starved;
  starved.max_memory_bytes = 64;  // the packed memo outgrows this
  {
    AnalysisSession session(std::make_shared<const Trace>(trace), starved);
    const auto first = session.relations(Semantics::kInterleaving);
    ASSERT_TRUE(first->truncated);
    const SessionStats warm = session.stats();
    const auto second = session.relations(Semantics::kInterleaving);
    EXPECT_TRUE(second->truncated);
    EXPECT_EQ(session.stats().computations, warm.computations + 1);
    expect_same_relations(
        *second, compute_exact(trace, Semantics::kInterleaving, starved));
  }
}

TEST(ServiceEquivalence, FaultInjectedAnswersMatchFreshAndAreNotCached) {
  Rng rng(5);
  testing::RandomTraceConfig config;
  config.num_events = 12;
  const Trace trace = testing::random_trace(config, rng);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kDeadlineAtState;
  plan.threshold = 16;

  OrderingRelations expected;
  {
    fault::ScopedFaultPlan scope(plan);
    expected = compute_exact(trace, Semantics::kInterleaving, {});
  }
  ASSERT_TRUE(expected.truncated);

  AnalysisSession session(std::make_shared<const Trace>(trace));
  {
    fault::ScopedFaultPlan scope(plan);  // identical re-armed plan
    const auto got = session.relations(Semantics::kInterleaving);
    expect_same_relations(*got, expected);
  }
  // The truncated result was not admitted: with the fault disarmed the
  // same query recomputes and now caches the exact answer.
  const auto exact = session.relations(Semantics::kInterleaving);
  EXPECT_FALSE(exact->truncated);
  EXPECT_EQ(session.stats().computations, 2u);
  const auto hit = session.relations(Semantics::kInterleaving);
  EXPECT_EQ(exact.get(), hit.get());
}

// ---------------------------------------------------------- eviction path

TEST(ServiceEviction, HitAfterEvictionRecomputesCorrectly) {
  Rng rng(9);
  testing::RandomTraceConfig config;
  config.num_events = 10;
  const Trace trace = testing::random_trace(config, rng);

  // A cache too small for even one relations result: every entry is
  // evicted on insert, yet answers must stay correct and the cache must
  // stay within its byte budget throughout.
  auto cache = std::make_shared<ResultCache>(/*max_bytes=*/256);
  AnalysisSession session(std::make_shared<const Trace>(trace),
                          ExactOptions{}, cache);
  for (int round = 0; round < 2; ++round) {
    for (const Semantics s : kAllSemantics) {
      expect_same_relations(*session.relations(s), compute_exact(trace, s));
      EXPECT_LE(cache->bytes(), cache->budget_bytes());
    }
  }
  const CacheStats stats = cache->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, 0u);  // nothing survives a 256-byte budget
  // Six computations: three semantics, recomputed once after eviction.
  EXPECT_EQ(session.stats().computations, 6u);
}

// --------------------------------------------------------------- anytime

TEST(ServiceAnytime, EqualLadderReusesWarmQuery) {
  // After one climb, an equal ladder and then a different one each
  // answer a new pair from the stored run: no state is expanded again.
  const std::vector<QueryBudget> ladder{{.max_states = 1'000'000,
                                         .max_schedules = 1'000'000}};
  const std::vector<QueryBudget> equal_copy = ladder;
  const std::vector<QueryBudget> other{{.max_states = 7}};
  AnalysisSession session(std::make_shared<const Trace>(quickstart_trace()));
  EXPECT_TRUE(session.anytime_must_have_happened_before(
                         0, 3, Semantics::kCausal, ladder)
                  .provenance.exact_complete);
  const SessionStats climbed = session.stats();
  EXPECT_GT(climbed.states_explored, 0u);
  const BoundedVerdict equal = session.anytime_must_have_happened_before(
      0, 1, Semantics::kCausal, equal_copy);
  EXPECT_TRUE(equal.proven());
  EXPECT_EQ(equal.provenance.engine, "exact");
  const BoundedVerdict different = session.anytime_must_have_happened_before(
      2, 3, Semantics::kCausal, other);
  EXPECT_TRUE(different.proven());
  EXPECT_EQ(different.provenance.engine, "exact");
  const SessionStats after = session.stats();
  EXPECT_EQ(after.states_explored, climbed.states_explored);
  EXPECT_EQ(after.sweeps, climbed.sweeps);
}

TEST(ServiceAnytime, VerdictsCachedAndUnknownUpgradeable) {
  const Trace trace = wedgeable_trace();
  AnalysisSession session(std::make_shared<const Trace>(trace));
  // A one-rung ladder too starved to decide anything.
  const std::vector<QueryBudget> starved{{.max_states = 1,
                                          .max_schedules = 1}};
  const BoundedVerdict v1 = session.anytime_can_deadlock(starved);
  EXPECT_TRUE(v1.unknown());
  const SessionStats warm = session.stats();
  // Same ladder again: served from the cache, no recompute.
  const BoundedVerdict v2 = session.anytime_can_deadlock(starved);
  EXPECT_TRUE(v2.unknown());
  EXPECT_EQ(session.stats().computations, warm.computations);
  EXPECT_EQ(session.stats().cache_hits, warm.cache_hits + 1);
  // A different (default, unbounded) ladder upgrades the unknown...
  const BoundedVerdict v3 = session.anytime_can_deadlock();
  EXPECT_TRUE(v3.proven());
  // ...and the definitive verdict is final for EVERY ladder, including
  // the starved one that produced the unknown.
  const SessionStats upgraded = session.stats();
  const BoundedVerdict v4 = session.anytime_can_deadlock(starved);
  EXPECT_TRUE(v4.proven());
  EXPECT_EQ(session.stats().computations, upgraded.computations);
}

TEST(AnalysisSession, ExactRacesShareOneSweepWithRelations) {
  // Under race semantics (causal_data_edges = false) the session's
  // relations() and races(kExact) answer from ONE exponential sweep:
  // the report is bit reads over the cached CCW matrix.
  ExactOptions options;
  options.causal_data_edges = false;
  AnalysisSession session(std::make_shared<const Trace>(quickstart_trace()),
                          options);
  session.relations(Semantics::kCausal);
  const SessionStats warm = session.stats();
  EXPECT_EQ(warm.sweeps, 1u);
  const auto report = session.races(RaceDetector::kExact);
  EXPECT_FALSE(report->truncated);
  const SessionStats after = session.stats();
  EXPECT_EQ(after.sweeps, warm.sweeps);  // no second sweep
  EXPECT_EQ(after.states_explored, warm.states_explored);
  // And the other way round on a fresh session: races() first leaves
  // the race-semantics relations cached for relations().
  AnalysisSession reversed(
      std::make_shared<const Trace>(quickstart_trace()), options);
  reversed.races(RaceDetector::kExact);
  const SessionStats rwarm = reversed.stats();
  EXPECT_EQ(rwarm.sweeps, 1u);
  reversed.relations(Semantics::kCausal);
  EXPECT_EQ(reversed.stats().sweeps, rwarm.sweeps);
  EXPECT_EQ(reversed.stats().states_explored, rwarm.states_explored);
  // Either order, the report matches the from-scratch detector.
  expect_same_races(*report, detect_races_exact(session.trace(), options));
}

TEST(AnalysisSession, TruncatedRaceReportIsNeverCached) {
  // A budget-starved race sweep truncates; truncated results are
  // budget-dependent noise and must not be served to later callers.
  ExactOptions starved;
  starved.max_schedules = 1;
  AnalysisSession session(
      std::make_shared<const Trace>(wedgeable_trace()), starved);
  const auto first = session.races(RaceDetector::kExact);
  EXPECT_TRUE(first->truncated);
  const SessionStats warm = session.stats();
  const auto second = session.races(RaceDetector::kExact);
  EXPECT_TRUE(second->truncated);
  // Recomputed, not served from the cache.
  EXPECT_GT(session.stats().computations, warm.computations);
}

TEST(AnalysisSession, SatOracleSwitchCountsTripsAndRebuilds) {
  const Trace trace = wedgeable_trace();
  AnalysisSession session(std::make_shared<const Trace>(trace));
  EXPECT_TRUE(session.use_sat_oracle());
  // A truncated climb leaves interleaving pairs to the oracle.
  const std::vector<QueryBudget> starved{{.max_states = 1}};
  const std::vector<std::pair<EventId, EventId>> pairs =
      ordered_pairs(trace);
  std::size_t next = 0;
  while (next < pairs.size() &&
         session
                 .anytime_must_have_happened_before(
                     pairs[next].first, pairs[next].second,
                     Semantics::kInterleaving, starved)
                 .provenance.engine != "sat-oracle") {
    ++next;
  }
  ASSERT_LT(++next, pairs.size()) << "no pair reached the oracle";
  session.set_use_sat_oracle(false);  // the circuit breaker's edge
  EXPECT_FALSE(session.use_sat_oracle());
  // After the trip a new pair consults no oracle and re-climbs nothing.
  const SessionStats tripped = session.stats();
  EXPECT_GT(tripped.states_explored, 0u);  // the climb is the session's
  const std::uint64_t oracle_queries = session.oracle_stats().queries;
  EXPECT_GT(oracle_queries, 0u);  // and so is the oracle it consulted
  const BoundedVerdict after = session.anytime_must_have_happened_before(
      pairs[next].first, pairs[next].second, Semantics::kInterleaving,
      starved);
  EXPECT_NE(after.provenance.engine, "sat-oracle");
  EXPECT_EQ(session.oracle_stats().queries, oracle_queries);
  EXPECT_EQ(session.stats().states_explored, tripped.states_explored);
  EXPECT_EQ(session.stats().sweeps, tripped.sweeps);
  session.set_use_sat_oracle(true);
  EXPECT_TRUE(session.use_sat_oracle());
}

TEST(ServiceAnytime, VerdictsMatchFreshAnytimeQuery) {
  const Trace trace = quickstart_trace();
  AnalysisSession session(std::make_shared<const Trace>(trace));
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kCausal, {});
  const auto expected = [](bool holds) {
    return holds ? VerdictState::kProven : VerdictState::kRefuted;
  };
  for (const auto& [a, b] : ordered_pairs(trace)) {
    EXPECT_EQ(session.anytime_must_have_happened_before(a, b).state,
              expected(exact.holds(RelationKind::kMHB, a, b)));
    EXPECT_EQ(session.anytime_could_have_been_concurrent(a, b).state,
              expected(exact.holds(RelationKind::kCCW, a, b)));
  }
  EXPECT_EQ(session.anytime_can_deadlock().state,
            expected(analyze_deadlocks(trace, {}).can_deadlock));
}

TEST(ServiceAnytime, AnalyzerAndSessionLaddersRunConcurrently) {
  // One thread asks a registry session anytime questions under the
  // default ladder while another thread asks the same session under two
  // other ladders, alternating per pair.  Every verdict is definitive
  // here and must match compute_exact.
  Rng rng(29);
  testing::RandomTraceConfig config;
  config.num_events = 10;
  const Trace trace = testing::random_trace(config, rng);
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kCausal, {});
  ASSERT_FALSE(exact.truncated);
  TraceRegistry registry;
  const auto session = registry.session(trace);
  const std::vector<std::vector<QueryBudget>> ladders{
      {{.max_states = 1'000'000, .max_schedules = 1'000'000}},
      {{.max_states = 2'000'000, .max_schedules = 2'000'000}}};
  const auto expect_exact = [&](const BoundedVerdict& v, RelationKind kind,
                                EventId a, EventId b) {
    ASSERT_FALSE(v.unknown()) << v.summary();
    EXPECT_EQ(v.proven(), exact.holds(kind, a, b))
        << to_string(kind) << " (" << a << ", " << b << ")";
  };
  const auto pairs = ordered_pairs(trace);
  std::thread default_ladder([&] {
    for (const auto& [a, b] : pairs) {
      expect_exact(session->anytime_must_have_happened_before(a, b),
                   RelationKind::kMHB, a, b);
      expect_exact(session->anytime_could_have_been_concurrent(a, b),
                   RelationKind::kCCW, a, b);
    }
  });
  for (std::size_t i = pairs.size(); i-- > 0;) {
    const auto& [a, b] = pairs[i];
    const auto& ladder = ladders[i % ladders.size()];
    expect_exact(session->anytime_must_have_happened_before(
                     a, b, Semantics::kCausal, ladder),
                 RelationKind::kMHB, a, b);
    expect_exact(session->anytime_could_have_been_concurrent(a, b, ladder),
                 RelationKind::kCCW, a, b);
  }
  default_ladder.join();
}

TEST(ServiceAnytime, LadderChangeReadsStoredRunBeforeClimbing) {
  // One climb under `first` leaves a truncated interleaving run and a
  // built oracle, which is complete under interleaving semantics.  A
  // different ladder, then `first` again, then `first` after a breaker
  // trip answer new pairs without expanding a state.
  const Trace trace = wedgeable_trace();
  AnalysisSession session(std::make_shared<const Trace>(trace));
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kInterleaving, {});
  const std::vector<QueryBudget> first{{.max_states = 1}};
  const std::vector<QueryBudget> second{{.max_states = 2}};
  const auto pairs = ordered_pairs(trace);
  std::size_t next = 0;
  const auto ask = [&](const std::vector<QueryBudget>& ladder) {
    const auto [a, b] = pairs.at(next++);
    const BoundedVerdict v = session.anytime_must_have_happened_before(
        a, b, Semantics::kInterleaving, ladder);
    if (!v.unknown()) {
      EXPECT_EQ(v.proven(), exact.holds(RelationKind::kMHB, a, b))
          << "(" << a << ", " << b << ") " << v.summary();
    }
    return v;
  };
  while (ask(first).provenance.engine != "sat-oracle") {
    ASSERT_LT(next, pairs.size()) << "no pair reached the oracle";
  }
  const SessionStats climbed = session.stats();
  EXPECT_GT(climbed.states_explored, 0u);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(ask(second).unknown());
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(ask(first).unknown());
  EXPECT_EQ(session.stats().states_explored, climbed.states_explored);
  EXPECT_EQ(session.stats().sweeps, climbed.sweeps);
  session.set_use_sat_oracle(false);
  for (int i = 0; i < 3; ++i) ask(first);
  EXPECT_EQ(session.stats().states_explored, climbed.states_explored);
  EXPECT_EQ(session.stats().sweeps, climbed.sweeps);
}

TEST(ServiceAnytime, CompleteRungServesRelationsAndTheReverse) {
  const Trace trace = wedgeable_trace();
  for (const Semantics s : kAllSemantics) {
    SCOPED_TRACE("semantics " + std::to_string(static_cast<int>(s)));
    // A complete rung is published as the relations result.
    AnalysisSession session(std::make_shared<const Trace>(trace));
    ASSERT_TRUE(session.anytime_must_have_happened_before(0, 3, s)
                    .provenance.exact_complete);
    const SessionStats climbed = session.stats();
    const auto relations = session.relations(s);
    EXPECT_EQ(session.stats().sweeps, climbed.sweeps);
    EXPECT_EQ(session.stats().states_explored, climbed.states_explored);
    expect_same_relations(*relations, compute_exact(trace, s, {}));
    // Cached relations answer an anytime query without a climb.
    AnalysisSession reversed(std::make_shared<const Trace>(trace));
    reversed.relations(s);
    const SessionStats warm = reversed.stats();
    const BoundedVerdict v = reversed.anytime_must_have_happened_before(0, 3, s);
    EXPECT_EQ(v.provenance.engine, "exact");
    EXPECT_EQ(reversed.stats().sweeps, warm.sweeps);
    EXPECT_EQ(reversed.stats().states_explored, warm.states_explored);
  }
}

TEST(ServiceAnytime, StoredRunVerdictsStartNoSearch) {
  // A verdict read off a stored complete run is its answer: the climb
  // starts no further search after it decides (no witness extraction).
  const Trace trace = wedgeable_trace();
  for (const Semantics s : kAllSemantics) {
    SCOPED_TRACE("semantics " + std::to_string(static_cast<int>(s)));
    AnalysisSession session(std::make_shared<const Trace>(trace));
    ASSERT_FALSE(session.relations(s)->truncated);
    // Never trips; it only counts the states any engine expands.
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kDeadlineAtState;
    plan.threshold = ~std::uint64_t{0};
    fault::ScopedFaultPlan scope(plan);
    for (const auto& [a, b] : ordered_pairs(trace)) {
      EXPECT_FALSE(
          session.anytime_must_have_happened_before(a, b, s).unknown());
      EXPECT_FALSE(
          session.anytime_could_have_happened_before(a, b, s).unknown());
      if (s == Semantics::kCausal) {
        EXPECT_FALSE(
            session.anytime_could_have_been_concurrent(a, b).unknown());
      }
    }
    EXPECT_EQ(fault::states_observed(), 0u);
  }
}

TEST(ServiceOracle, BatchAndAnytimeShareOneEncode) {
  // The oracle behind the anytime portfolio rung is one instance per
  // session: verdicts under two semantics share one CNF encode.
  const Trace trace = wedgeable_trace();
  const std::vector<QueryBudget> starved{
      {.max_states = 1, .max_schedules = 1}};
  AnalysisSession session(std::make_shared<const Trace>(trace));
  for (const Semantics s : {Semantics::kInterleaving, Semantics::kInterval}) {
    SCOPED_TRACE("semantics " + std::to_string(static_cast<int>(s)));
    bool by_oracle = false;
    for (const auto& [a, b] : ordered_pairs(trace)) {
      by_oracle = session.anytime_must_have_happened_before(a, b, s, starved)
                      .provenance.engine == "sat-oracle";
      if (by_oracle) break;
    }
    ASSERT_TRUE(by_oracle) << "no pair reached the oracle";
    EXPECT_EQ(session.oracle_stats().solver_builds, 1u);
  }
}

TEST(ServiceOracle, StatsSnapshotIsSafeDuringAClimb) {
  // One thread climbs a starved ladder into the oracle, pair after pair,
  // while another polls oracle_stats().  The snapshot is read under the
  // session's oracle lock, so ThreadSanitizer sees no race, and the
  // counters it shows only grow.
  const Trace trace = wedgeable_trace();
  AnalysisSession session(std::make_shared<const Trace>(trace));
  const SatOracleStats before = session.oracle_stats();
  EXPECT_EQ(before.solver_builds, 0u);  // not built yet: all zeros
  EXPECT_EQ(before.queries, 0u);
  const std::vector<QueryBudget> starved{{.max_states = 1}};
  std::atomic<bool> done{false};
  std::thread climber([&] {
    for (const auto& [a, b] : ordered_pairs(trace)) {
      session.anytime_must_have_happened_before(
          a, b, Semantics::kInterleaving, starved);
      session.anytime_could_have_happened_before(
          a, b, Semantics::kInterleaving, starved);
    }
    done.store(true);
  });
  SatOracleStats last;
  while (!done.load()) {
    const SatOracleStats now = session.oracle_stats();
    EXPECT_GE(now.queries, last.queries);
    EXPECT_LE(now.solver_builds, 1u);
    last = now;
  }
  climber.join();
  const SatOracleStats after = session.oracle_stats();
  EXPECT_EQ(after.solver_builds, 1u);
  EXPECT_GT(after.queries, 0u);
  EXPECT_GE(after.queries, last.queries);
}

TEST(AnalysisSession, AnytimeDeadlockRungTakesSessionReduction) {
  Rng rng(7);
  testing::RandomTraceConfig config;
  config.num_events = 12;
  const Trace trace = testing::random_trace(config, rng);
  ExactOptions unreduced;
  unreduced.reduction = search::ReductionMode::kOff;
  // The trace is one where the reduction matters.
  DeadlockOptions off;
  off.reduction = search::ReductionMode::kOff;
  ASSERT_NE(analyze_deadlocks(trace, {}).search.states_visited,
            analyze_deadlocks(trace, off).search.states_visited);
  AnalysisSession session(std::make_shared<const Trace>(trace), unreduced);
  const BoundedVerdict v = session.anytime_can_deadlock();
  ASSERT_TRUE(v.provenance.exact_complete);
  EXPECT_EQ(v.provenance.states_visited,
            session.deadlocks()->search.states_visited);
}

TEST(AnalysisSession, DeadlocksHonourTheMemoryBudget) {
  Rng rng(3);
  testing::RandomTraceConfig config;
  config.num_events = 18;
  ExactOptions starved;
  starved.max_memory_bytes = 64;
  AnalysisSession session(
      std::make_shared<const Trace>(testing::random_trace(config, rng)),
      starved);
  const auto first = session.deadlocks();
  ASSERT_TRUE(first->truncated);
  EXPECT_EQ(first->search.stop_reason, search::StopReason::kMemory);
  const SessionStats warm = session.stats();
  EXPECT_TRUE(session.deadlocks()->truncated);
  EXPECT_EQ(session.stats().computations, warm.computations + 1);
}

}  // namespace
}  // namespace evord
