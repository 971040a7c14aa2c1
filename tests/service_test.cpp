// Analysis-as-a-service layer (src/service/): trace registry dedup,
// cross-query result cache, warm sessions, batched pair queries, cached
// anytime verdicts — plus the equivalence sweep pinning that every
// answer served from the cache is bit-identical to a fresh analyzer,
// including under memory budgets, deterministic fault injection, and
// cache eviction (a hit after eviction recomputes correctly).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "helpers.hpp"
#include "service/registry.hpp"
#include "service/result_cache.hpp"
#include "service/session.hpp"
#include "trace/builder.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace evord {
namespace {

using service::AnalysisSession;
using service::BatchRouting;
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

TEST(TraceRegistry, FindSessionLooksUpWithoutCreating) {
  TraceRegistry registry;
  const Trace trace = quickstart_trace();
  const std::uint64_t fp = trace.fingerprint();
  // Nothing registered yet: nullptr, and crucially no session built (the
  // daemon calls this on bounce paths that must stay cheap).
  EXPECT_EQ(registry.find_session(fp), nullptr);
  EXPECT_EQ(registry.num_sessions(), 0u);

  const auto built = registry.session(trace);
  EXPECT_EQ(registry.find_session(fp).get(), built.get());
  // A different options digest is a different slot — still no creation.
  ExactOptions other;
  other.respect_dependences = false;
  EXPECT_EQ(registry.find_session(fp, other), nullptr);
  EXPECT_EQ(registry.num_sessions(), 1u);
}

TEST(TraceRegistry, SessionValidatesAxioms) {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  b.sem_p(b.root(), s);  // P with count 0: invalid
  TraceRegistry registry;
  EXPECT_THROW(registry.session(b.build_unchecked()), CheckError);
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

// ----------------------------------------------------- session: pure hits

TEST(AnalysisSession, RepeatedQueriesArePureCacheHits) {
  AnalysisSession session(std::make_shared<const Trace>(wedgeable_trace()));
  for (const Semantics s : kAllSemantics) session.relations(s);
  session.coexistence();
  session.feasibility();
  session.deadlocks();
  session.races(RaceDetector::kExact);
  session.races(RaceDetector::kGuaranteed);
  const SessionStats warm = session.stats();
  EXPECT_GT(warm.states_explored, 0u);
  EXPECT_GT(warm.computations, 0u);

  // Every repeat must be a pure hit: zero new states explored.
  for (const Semantics s : kAllSemantics) session.relations(s);
  session.coexistence();
  session.feasibility();
  session.deadlocks();
  session.races(RaceDetector::kExact);
  session.races(RaceDetector::kGuaranteed);
  session.pair_query({RelationKind::kMHB, 0, 3, Semantics::kCausal});
  const SessionStats again = session.stats();
  EXPECT_EQ(again.states_explored, warm.states_explored);
  EXPECT_EQ(again.computations, warm.computations);
  EXPECT_EQ(again.sweeps, warm.sweeps);
  EXPECT_EQ(again.cache_hits, warm.cache_hits + 9);
}

TEST(AnalysisSession, FeasibilityAfterCoexistenceHitsWarmMemo) {
  // The memoized sweep is serial whatever num_threads says, so a
  // multi-worker session keeps its warm memo too.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExactOptions options;
    options.num_threads = threads;
    AnalysisSession session(std::make_shared<const Trace>(quickstart_trace()),
                            options);
    session.coexistence();  // fills the session's warm completability memo
    const SessionStats after_sweep = session.stats();
    EXPECT_GT(after_sweep.states_explored, 0u);
    // The verdict-only feasibility sweep answers from the warm memo's
    // root hit: a computation, but (nearly) zero NEW states.
    EXPECT_TRUE(session.feasible());
    const SessionStats after_feasible = session.stats();
    EXPECT_EQ(after_feasible.computations, after_sweep.computations + 1);
    EXPECT_LE(after_feasible.states_explored - after_sweep.states_explored,
              1u);
  }
}

TEST(AnalysisSession, IdenticalTracesShareEverything) {
  TraceRegistry registry;
  OrderingAnalyzer first(registry.session(quickstart_trace("x")));
  OrderingAnalyzer second(registry.session(quickstart_trace("y")));
  EXPECT_TRUE(first.must_have_happened_before(0, 3));
  const SessionStats warm = second.session().stats();
  // The second analyzer's query lands on the session the first one
  // already warmed: pure hit, zero new states.
  EXPECT_TRUE(second.must_have_happened_before(0, 3));
  const SessionStats again = second.session().stats();
  EXPECT_EQ(again.states_explored, warm.states_explored);
  EXPECT_EQ(again.cache_hits, warm.cache_hits + 1);
}

TEST(AnalysisSession, RacesCachedPerDetector) {
  // The historic analyzer reran the exponential exact detection on
  // every races() call; the session computes once per detector.
  OrderingAnalyzer analyzer(quickstart_trace());
  const RaceReport r1 = analyzer.races(RaceDetector::kExact);
  const SessionStats warm = analyzer.session().stats();
  const RaceReport r2 = analyzer.races(RaceDetector::kExact);
  expect_same_races(r1, r2);
  EXPECT_EQ(analyzer.session().stats().computations, warm.computations);
  // A different detector is its own cache slot.
  analyzer.races(RaceDetector::kGuaranteed);
  EXPECT_EQ(analyzer.session().stats().computations, warm.computations + 1);
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

  // Answers must match the one-at-a-time path on a fresh analyzer.
  OrderingAnalyzer fresh(quickstart_trace());
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const PairQuery& q = queries[i];
    EXPECT_EQ(answers[i],
              fresh.relations(q.semantics).holds(q.relation, q.a, q.b))
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
  // Six different query kinds in flight at once: each computes exactly
  // once (the session mutex is released during the engines' work, so
  // they genuinely overlap), and every answer matches a fresh analyzer.
  Rng rng(13);
  testing::RandomTraceConfig config;
  config.num_events = 10;
  const Trace trace = testing::random_trace(config, rng);
  AnalysisSession session(std::make_shared<const Trace>(trace));
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] { session.relations(Semantics::kCausal); });
    threads.emplace_back(
        [&] { session.relations(Semantics::kInterleaving); });
    threads.emplace_back([&] { session.feasibility(); });
    threads.emplace_back([&] { session.coexistence(); });
    threads.emplace_back([&] { session.deadlocks(); });
    threads.emplace_back(
        [&] { session.races(RaceDetector::kGuaranteed); });
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(session.stats().computations, 6u);
  OrderingAnalyzer fresh(trace);
  expect_same_relations(*session.relations(Semantics::kCausal),
                        fresh.relations(Semantics::kCausal));
  expect_same_relations(*session.relations(Semantics::kInterleaving),
                        fresh.relations(Semantics::kInterleaving));
  EXPECT_EQ(session.deadlocks()->can_deadlock,
            fresh.deadlocks().can_deadlock);
  EXPECT_EQ(session.stats().computations, 6u);  // verification = pure hits
}

// ------------------------------------------------- oracle batch routing

TEST(ServiceOracle, OracleFirstBatchMatchesExactSweep) {
  const Trace trace = wedgeable_trace();
  std::vector<PairQuery> queries;
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a == b) continue;
      queries.push_back(
          {RelationKind::kMHB, a, b, Semantics::kInterleaving});
      queries.push_back(
          {RelationKind::kCHB, a, b, Semantics::kInterleaving});
      queries.push_back({RelationKind::kCCW, a, b, Semantics::kCausal});
    }
  }
  AnalysisSession exact_session(std::make_shared<const Trace>(trace));
  const std::vector<bool> expected = exact_session.query_batch(queries);

  AnalysisSession oracle_session(std::make_shared<const Trace>(trace));
  const std::vector<bool> got =
      oracle_session.query_batch(queries, BatchRouting::kOracleFirst);
  EXPECT_EQ(got, expected);
  const SessionStats stats = oracle_session.stats();
  EXPECT_EQ(stats.batched_pairs, queries.size());
  EXPECT_GT(stats.oracle_pairs, 0u);
  EXPECT_GT(stats.oracle_decided, 0u);
  // Interleaving pairs always decide in the solver; only oracle-unknown
  // causal pairs may fall back, so at most the one causal sweep runs.
  EXPECT_LE(stats.sweeps, 1u);
  // The whole batch rode one warm incremental solver.
  EXPECT_EQ(oracle_session.sat_oracle().stats().solver_builds, 1u);
}

// ---------------------------------------------------- equivalence sweep

/// Cache-hit answers must be bit-identical to a fresh analyzer across
/// all query kinds x semantics x randomized workloads.
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
    OrderingAnalyzer fresh(trace);

    for (const Semantics s : kAllSemantics) {
      const auto cold = session->relations(s);
      const auto hit = session->relations(s);  // second call: cache hit
      EXPECT_EQ(cold.get(), hit.get());
      expect_same_relations(*hit, fresh.relations(s));
    }
    {
      const auto cold = session->coexistence();
      const auto hit = session->coexistence();
      EXPECT_EQ(cold.get(), hit.get());
      for (EventId a = 0; a < trace.num_events(); ++a) {
        for (EventId b = 0; b < trace.num_events(); ++b) {
          if (a == b) continue;
          EXPECT_EQ(hit->can_coexist[a].test(b),
                    fresh.could_have_coexisted(a, b));
        }
      }
    }
    {
      const DeadlockReport& expected = fresh.deadlocks();
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
      const RaceReport expected = fresh.races(d);
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
    OrderingAnalyzer fresh(trace, roomy);
    expect_same_relations(*session.relations(Semantics::kCausal),
                          fresh.relations(Semantics::kCausal));
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
    OrderingAnalyzer fresh(trace, starved);
    expect_same_relations(*second,
                          fresh.relations(Semantics::kInterleaving));
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
  OrderingAnalyzer fresh(trace);
  for (int round = 0; round < 2; ++round) {
    for (const Semantics s : kAllSemantics) {
      expect_same_relations(*session.relations(s), fresh.relations(s));
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
  // Regression for the historic OrderingAnalyzer::anytime() bug: any
  // non-empty ladder rebuilt the AnytimeQuery even when it was EQUAL to
  // the current one, discarding every cached ladder run.
  const std::vector<QueryBudget> ladder{{.max_states = 1'000'000,
                                         .max_schedules = 1'000'000}};
  const std::vector<QueryBudget> equal_copy = ladder;
  OrderingAnalyzer analyzer(quickstart_trace());
  EXPECT_EQ(analyzer.anytime(ladder).ladder_climbs(), 0u);
  analyzer.anytime(ladder).must_have_happened_before(0, 3);
  EXPECT_EQ(analyzer.anytime(ladder).ladder_climbs(), 1u);
  ASSERT_TRUE(
      analyzer.anytime(ladder).has_cached_run(Semantics::kCausal));
  // Passing an EQUAL ladder keeps the object and its cached runs.
  EXPECT_TRUE(
      analyzer.anytime(equal_copy).has_cached_run(Semantics::kCausal));
  EXPECT_EQ(analyzer.anytime(equal_copy).ladder_climbs(), 1u);
  analyzer.anytime(equal_copy).must_have_happened_before(0, 1);
  EXPECT_EQ(analyzer.anytime(ladder).ladder_climbs(), 1u);  // still warm
  // A genuinely different ladder rebuilds (cached runs discarded).
  const std::vector<QueryBudget> other{{.max_states = 7}};
  EXPECT_FALSE(analyzer.anytime(other).has_cached_run(Semantics::kCausal));
  EXPECT_EQ(analyzer.anytime(other).ladder_climbs(), 0u);
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
  AnalysisSession session(std::make_shared<const Trace>(quickstart_trace()));
  EXPECT_TRUE(session.use_sat_oracle());
  EXPECT_TRUE(session.anytime().options().use_sat_oracle);
  session.set_use_sat_oracle(false);  // the circuit breaker's edge
  EXPECT_FALSE(session.use_sat_oracle());
  EXPECT_EQ(session.stats().breaker_trips, 1u);
  EXPECT_FALSE(session.anytime().options().use_sat_oracle);
  session.set_use_sat_oracle(false);  // idempotent: no second trip
  EXPECT_EQ(session.stats().breaker_trips, 1u);
  session.set_use_sat_oracle(true);
  EXPECT_EQ(session.stats().breaker_trips, 1u);
  EXPECT_TRUE(session.anytime().options().use_sat_oracle);
  // The daemon-facing robustness counters surface in the same stats.
  session.note_shed();
  session.note_rejected();
  session.note_deadline_degraded();
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.deadline_degraded, 1u);
}

TEST(ServiceAnytime, VerdictsMatchFreshAnytimeQuery) {
  const Trace trace = quickstart_trace();
  AnalysisSession session(std::make_shared<const Trace>(trace));
  AnytimeQuery fresh(trace);
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(session.anytime_must_have_happened_before(a, b).state,
                fresh.must_have_happened_before(a, b).state);
      EXPECT_EQ(session.anytime_could_have_been_concurrent(a, b).state,
                fresh.could_have_been_concurrent(a, b).state);
    }
  }
  EXPECT_EQ(session.anytime_can_deadlock().state,
            fresh.can_deadlock().state);
}

}  // namespace
}  // namespace evord
