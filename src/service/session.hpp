// AnalysisSession: the warm, per-trace analysis server and the library's
// front door.
//
// A session binds one registered trace (shared, immutable) to one exact
// configuration and serves relations, pair queries, deadlock, races and
// anytime verdicts through a ResultCache keyed on the trace's content
// fingerprint.  The polynomial baselines, coexistence and witnesses are
// free functions (approx/, feasible/schedule_space.hpp,
// ordering/witness.hpp) that take the session's trace() and options().
// What makes it a service core rather than a per-call API:
//
//   * results are computed once and shared: a repeated query is a pure
//     cache hit (zero new states explored — SessionStats::states_explored
//     stays flat, the acceptance signal the tests pin);
//   * N pair queries coalesce into at most one relations sweep per
//     distinct semantics (query_batch) instead of N;
//   * anytime verdicts climb a budget ladder over this same warm state:
//     each rung is a coalesced computation, a complete rung is published
//     as the relations (or deadlock / exact-race) result, and the
//     largest run per semantics stays as evidence that any later ladder
//     reads before it climbs.  Verdicts are cached WITH the digest of
//     the ladder that produced them: a definitive verdict (proven /
//     refuted) is final and served to every caller, an `unknown` is
//     recomputed — and replaced in the cache — when a caller presents a
//     different (e.g. bigger-budget) ladder;
//   * truncated results are never cached: they are budget- and
//     fault-dependent noise, so caching them would let one starved run
//     poison every later caller;
//   * identical in-flight queries coalesce: the session mutex is
//     RELEASED while an exponential engine runs, and a second thread
//     asking the same question while the first computes WAITS on the
//     in-flight entry and shares the result instead of launching a
//     duplicate sweep (its states_explored contribution is zero);
//   * one warm incremental SAT oracle (ordering/sat_oracle.hpp) is kept
//     per session for the anytime portfolio rung; each call is bounded
//     by the conflict budget and time box of the last rung tried.
//
// Sessions are internally locked (one coarse mutex for bookkeeping);
// the exponential engines run OUTSIDE the session mutex (see the
// coalescing bullet), so concurrent distinct queries overlap.  Each
// engine runs on the thread that asked, as every search does.
// shared_ptr results stay valid for as long as the
// caller holds them, even across cache eviction: a caller that needs a
// stable result holds the returned pointer.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "approx/combined.hpp"
#include "approx/vector_clock.hpp"
#include "feasible/deadlock.hpp"
#include "ordering/exact.hpp"
#include "ordering/sat_oracle.hpp"
#include "race/race_detector.hpp"
#include "resilience/anytime.hpp"
#include "service/result_cache.hpp"
#include "trace/trace.hpp"

namespace evord::service {

/// Digest of every ExactOptions field that can change a result —
/// budgets included, since the SearchStats embedded in cached results
/// differ per configuration even when matrices agree.  num_threads and
/// steal are left out: no search reads them.
std::uint64_t digest_options(const ExactOptions& options);

/// One must/could question about one ordered pair.
struct PairQuery {
  RelationKind relation = RelationKind::kMHB;
  EventId a = kNoEvent;
  EventId b = kNoEvent;
  Semantics semantics = Semantics::kCausal;
};

/// The value type cached under QueryKind::kAnytimeVerdict: the verdict
/// plus the digest of the ladder that produced it (upgrade policy — see
/// the file comment).
struct CachedVerdict {
  BoundedVerdict verdict;
  std::uint64_t ladder_digest = 0;
};

struct SessionStats {
  std::uint64_t queries = 0;       ///< public query calls served
  std::uint64_t cache_hits = 0;    ///< answered from the result cache
  std::uint64_t computations = 0;  ///< results actually computed
  std::uint64_t sweeps = 0;        ///< exponential searches among those
  /// Search-core states expanded by this session's computations, summed
  /// across all sweeps.  Flat across repeated queries — the "pure cache
  /// hit" acceptance signal.
  std::uint64_t states_explored = 0;
  std::uint64_t batched_pairs = 0;  ///< pair queries served via query_batch
  /// Queries that found an identical computation already in flight and
  /// waited for its result instead of recomputing (cross-thread
  /// coalescing; such a wait also counts as a cache_hit once served).
  std::uint64_t coalesced = 0;
};

class AnalysisSession {
 public:
  /// `trace` must be non-null and axiom-valid (checked, CheckError).
  /// `cache` == nullptr gives the session a private cache with the
  /// default budget; pass TraceRegistry's to share across sessions.
  explicit AnalysisSession(std::shared_ptr<const Trace> trace,
                           ExactOptions options = {},
                           std::shared_ptr<ResultCache> cache = nullptr);
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  const Trace& trace() const { return *trace_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const ExactOptions& options() const { return options_; }
  const std::shared_ptr<ResultCache>& cache() const { return cache_; }
  SessionStats stats() const;

  // ----- exact queries (cached through the ResultCache) -----------------
  std::shared_ptr<const OrderingRelations> relations(
      Semantics semantics = Semantics::kCausal);
  /// One Table-1 pair answer via the (cached) relations sweep.
  bool pair_query(const PairQuery& query);
  /// Batched pair execution: N queries cost at most one relations sweep
  /// per DISTINCT semantics among them (at most three), every further
  /// answer being a bit read.
  std::vector<bool> query_batch(const std::vector<PairQuery>& queries);

  /// A snapshot of the session's SAT oracle counters (all zeros before
  /// the oracle is built).  The oracle itself is lazily built on first
  /// use (one CNF encode + one incremental solver per session, shared by
  /// all three semantics' anytime portfolio rungs) and only ever
  /// touched under the session's oracle lock, which this read takes too.
  SatOracleStats oracle_stats() const;

  std::shared_ptr<const DeadlockReport> deadlocks();

  /// Cached per detector.  kExact additionally SHARES its sweep with
  /// relations(): the race-semantics relations are obtained through the
  /// relations cache (one exponential sweep, hit when the session's own
  /// options already use race semantics) and the report is derived from
  /// their CCW matrix by pure bit reads; a truncated sweep yields a
  /// truncated — and therefore never-cached — report.
  std::shared_ptr<const RaceReport> races(
      RaceDetector detector = RaceDetector::kExact);

  // ----- resource-governed anytime queries ------------------------------
  /// Budgeted verdicts (resilience/anytime.hpp) under `ladder` (the
  /// default ladder when empty).  A ladder climbs each semantics (and
  /// the race and deadlock searches) at most once per session: later
  /// pairs read its stored run.  A different ladder first reads the
  /// largest stored run, the polynomial bounds and an already-built
  /// oracle, and climbs only when those leave the verdict unknown.
  /// Climbs run outside the session mutex.
  BoundedVerdict anytime_must_have_happened_before(
      EventId a, EventId b, Semantics semantics = Semantics::kCausal,
      const std::vector<QueryBudget>& ladder = {});
  BoundedVerdict anytime_could_have_happened_before(
      EventId a, EventId b, Semantics semantics = Semantics::kCausal,
      const std::vector<QueryBudget>& ladder = {});
  BoundedVerdict anytime_could_have_been_concurrent(
      EventId a, EventId b, const std::vector<QueryBudget>& ladder = {});
  BoundedVerdict anytime_race_between(
      EventId a, EventId b, const std::vector<QueryBudget>& ladder = {});
  BoundedVerdict anytime_can_deadlock(
      const std::vector<QueryBudget>& ladder = {});

  // ----- robustness hooks (the daemon front end) -------------------------
  /// Enables / disables the SAT-oracle portfolio rung for this session's
  /// anytime queries.  The daemon's circuit breaker calls this with
  /// `false` after repeated oracle budget exhaustions on one trace; the
  /// flag is part of the cached-verdict digest, so an `unknown` computed
  /// WITH the oracle is recomputed (oracle-free, from the stored runs)
  /// after a trip rather than served stale.
  void set_use_sat_oracle(bool enabled);
  bool use_sat_oracle() const;

 private:
  /// One computation another caller may be waiting on.  Lives in
  /// in_flight_ (guarded by mu_) from the moment a thread claims a miss
  /// until it publishes; `result` == nullptr after `done` means the
  /// computing thread failed and waiters must retry.
  struct InFlight {
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const void> result;
  };

  /// What an anytime verdict asks (also salts its verdict-cache key).
  enum class Ask : std::uint8_t { kMHB, kCCW, kDeadlock, kCHB, kRace };
  /// How a verdict may use the SAT oracle for a pair its run and the
  /// bounds leave open: not at all, only once built, or building it.
  enum class OracleUse : std::uint8_t { kNone, kIfBuilt, kBuild };
  struct Ladder {
    const std::vector<QueryBudget>& rungs;
    std::uint64_t digest;
    bool use_oracle;
  };
  /// The largest ladder run so far of one search (relations per
  /// semantics, exact races, deadlock), kept whatever the cache evicts,
  /// and the digests of the ladders that climbed it (none climbs twice).
  template <class T>
  struct LadderRun {
    std::shared_ptr<const T> result;
    QueryProvenance provenance;
    std::vector<std::uint64_t> climbed;
  };

  CacheKey make_key(QueryKind kind, std::uint8_t semantics,
                    std::uint64_t extra) const;
  /// Requires oracle_mu_: lazily builds the session oracle.
  SatOracle& oracle_locked();

  /// The coalesced compute-once path: cache lookup, wait-and-share when
  /// an identical computation is in flight, else claim the key, RELEASE
  /// mu_ (via `lock`), run `compute` unlocked, then relock, account stats,
  /// cache (unless truncated) and wake the waiters.  `counts_sweep`
  /// feeds SessionStats::sweeps.  T must expose .search.states_visited,
  /// .truncated and .approx_bytes() (all three engine result types do).
  /// `counts_states` = false for results DERIVED from another cached
  /// result (they embed the source's SearchStats, which the source's
  /// computation already charged to states_explored).  `publish`, when
  /// set, is the key the result is looked up and cached under, and `key`
  /// only names the computation in flight (anytime rungs).
  template <class T, class Compute>
  std::shared_ptr<const T> coalesced_query(
      std::unique_lock<std::mutex>& lock, const CacheKey& key,
      bool counts_sweep, Compute&& compute,
      bool counts_states = true, const CacheKey* publish = nullptr);

  std::shared_ptr<const OrderingRelations> relations_coalesced(
      std::unique_lock<std::mutex>& lock, Semantics semantics);
  CacheKey race_key(RaceDetector detector) const;
  std::shared_ptr<const RaceReport> races_coalesced(
      std::unique_lock<std::mutex>& lock, RaceDetector detector);
  DeadlockOptions deadlock_options(const search::SearchOptions& budget) const;
  /// Write-once polynomial bounds for the anytime verdicts: the combined
  /// fixpoint (a sound subset of exact causal MHB) and the observed
  /// clocks over the exact causal order's edge set (data edges iff
  /// causal_data_edges).
  const CombinedResult& combined();
  const VectorClockResult& observed();

  // ----- the anytime climb policy -----
  ExactOptions rung_options(const QueryBudget& rung) const;
  BoundedVerdict anytime_verdict(Ask ask, EventId a, EventId b,
                                 Semantics semantics,
                                 const std::vector<QueryBudget>& ladder);
  /// `decide(run, provenance, OracleUse)` reads `slot`'s stored run when
  /// `ladder` climbed it (or it is complete); else `decide` reads it with
  /// a built oracle first, and `ladder` climbs (one coalesced `rung` call
  /// per rung) only if that leaves the verdict unknown.  Without mu_.
  template <class T, class Decide, class Rung>
  BoundedVerdict climb(LadderRun<T>& slot, const Ladder& ladder,
                       const CacheKey& publish, Decide&& decide,
                       Rung&& rung);
  BoundedVerdict relation_verdict(RelationKind kind, EventId a, EventId b,
                                  Semantics semantics,
                                  const OrderingRelations& run,
                                  const QueryProvenance& provenance,
                                  const std::vector<QueryBudget>& ladder,
                                  OracleUse oracle);
  BoundedVerdict race_verdict(EventId a, EventId b, const RaceReport& run,
                              const QueryProvenance& provenance);
  /// Portfolio rung: fills `v` when the oracle settles the pair; sets
  /// `v.provenance.oracle_exhausted` when it burned `rung`'s conflict
  /// budget or time box instead.
  void consult_oracle(RelationKind kind, EventId a, EventId b,
                      Semantics semantics, const QueryBudget& rung,
                      OracleUse use, BoundedVerdict& v);

  std::shared_ptr<const Trace> trace_;
  ExactOptions options_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t options_digest_ = 0;
  std::shared_ptr<ResultCache> cache_;

  mutable std::mutex mu_;
  SessionStats stats_;
  /// Computations currently running outside mu_, keyed like the cache.
  std::unordered_map<CacheKey, std::shared_ptr<InFlight>, CacheKeyHash>
      in_flight_;
  /// Guards lazy construction and every use of the session oracle;
  /// never held together with mu_.
  mutable std::mutex oracle_mu_;
  std::unique_ptr<SatOracle> oracle_;
  std::optional<VectorClockResult> observed_;
  std::optional<CombinedResult> combined_;
  /// Anytime evidence (guarded by mu_).
  std::array<LadderRun<OrderingRelations>, 3> relation_runs_;
  LadderRun<RaceReport> race_run_;
  LadderRun<DeadlockReport> deadlock_run_;
  /// SAT-oracle portfolio switch for anytime queries (guarded by mu_);
  /// flipped to false by a circuit-breaker trip.
  bool use_sat_oracle_ = true;
};

}  // namespace evord::service
