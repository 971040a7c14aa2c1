#include "service/session.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "search/fingerprint_set.hpp"
#include "trace/axioms.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace evord::service {

namespace {

/// Distinct salts per digest component / per derived cache key.
constexpr std::uint64_t kOptionsSalt = 0x0975;
constexpr std::uint64_t kRaceSalt = 0x7ace;
constexpr std::uint64_t kVerdictSalt = 0xa17e;

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t verdict_approx_bytes(const CachedVerdict& cached) {
  std::uint64_t bytes = sizeof(CachedVerdict) +
                        cached.verdict.provenance.engine.capacity();
  if (cached.verdict.witness.has_value()) {
    bytes += cached.verdict.witness->capacity() * sizeof(EventId);
  }
  return bytes;
}

/// Folds every search::SearchOptions field into `h`.
std::uint64_t digest_budget(std::uint64_t h, const search::SearchOptions& o) {
  h = hash_mix(0x01, h, o.max_states);
  h = hash_mix(0x02, h, o.max_schedules);
  h = hash_mix(0x03, h, double_bits(o.time_budget_seconds));
  h = hash_mix(0x04, h, o.max_memory_bytes);
  h = hash_mix(0x06, h, o.num_threads);
  h = hash_mix(0x07, h, o.steal.grain);
  h = hash_mix(0x08, h, o.steal.max_split_depth);
  h = hash_mix(0x09, h, o.steal.seed);
  return hash_mix(0x0a, h, static_cast<std::uint64_t>(o.reduction));
}

}  // namespace

std::uint64_t digest_options(const ExactOptions& o) {
  const std::uint64_t h =
      hash_mix(kOptionsSalt, o.respect_dependences, o.causal_data_edges);
  return digest_budget(hash_mix(0x0b, h, o.class_dedup), o);
}

AnalysisSession::AnalysisSession(std::shared_ptr<const Trace> trace,
                                 ExactOptions options,
                                 std::shared_ptr<ResultCache> cache)
    : trace_(std::move(trace)),
      options_(options),
      cache_(std::move(cache)) {
  EVORD_CHECK(trace_ != nullptr, "AnalysisSession needs a trace");
  const AxiomReport axioms = validate_axioms(*trace_);
  EVORD_CHECK(axioms.ok(),
              "trace violates model axioms:\n" << axioms.text());
  fingerprint_ = trace_->fingerprint();
  options_digest_ = digest_options(options_);
  if (cache_ == nullptr) cache_ = std::make_shared<ResultCache>();
}

AnalysisSession::~AnalysisSession() = default;

SessionStats AnalysisSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

CacheKey AnalysisSession::make_key(QueryKind kind, std::uint8_t semantics,
                                   std::uint64_t extra) const {
  CacheKey key;
  key.trace_fingerprint = fingerprint_;
  key.kind = kind;
  key.semantics = semantics;
  key.options_digest =
      extra == 0 ? options_digest_
                 : hash_mix(static_cast<std::uint64_t>(kind),
                            options_digest_, extra);
  return key;
}

ScheduleSpaceOptions AnalysisSession::space_options(
    bool build_coexist) const {
  ScheduleSpaceOptions options;
  static_cast<search::SearchOptions&>(options) = options_;
  // Feasibility and coexistence run unbudgeted in bytes and unreduced:
  // both keep the session's warm completability memo eligible (see
  // ScheduleSpaceOptions::warm_memo), and the coexistence matrix needs
  // every schedule.
  options.max_memory_bytes = 0;
  options.reduction = search::ReductionMode::kOff;
  options.stepper.respect_dependences = options_.respect_dependences;
  options.build_coexist = build_coexist;
  return options;
}

search::FingerprintBoolMap* AnalysisSession::warm_memo_locked(
    const ScheduleSpaceOptions& options) {
  if (warm_memo_ == nullptr) {
    warm_memo_ = make_feasibility_memo(*trace_, options);
  }
  return warm_memo_.get();
}

SatOracle& AnalysisSession::oracle_locked() {
  if (oracle_ == nullptr) {
    SatOracleOptions options;
    options.respect_dependences = options_.respect_dependences;
    options.causal_data_edges = options_.causal_data_edges;
    oracle_ = std::make_unique<SatOracle>(*trace_, options);
  }
  return *oracle_;
}

SatOracle& AnalysisSession::sat_oracle() {
  std::lock_guard<std::mutex> lock(oracle_mu_);
  return oracle_locked();
}

// ----- the coalesced compute-once path --------------------------------

template <class T, class Compute>
std::shared_ptr<const T> AnalysisSession::coalesced_query(
    std::unique_lock<std::mutex>& lock, const CacheKey& key,
    bool serialize_memo, bool counts_sweep, Compute&& compute,
    bool counts_states) {
  for (;;) {
    if (auto hit = cache_->get<T>(key)) {
      ++stats_.cache_hits;
      return hit;
    }
    auto it = in_flight_.find(key);
    if (it == in_flight_.end()) break;
    // Someone is computing this very answer right now: wait on their
    // entry and share it.  A null result after `done` means they threw;
    // loop back and compute (or wait on a newer claimant) ourselves.
    std::shared_ptr<InFlight> flight = it->second;
    ++stats_.coalesced;
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->result != nullptr) {
      ++stats_.cache_hits;
      return std::static_pointer_cast<const T>(flight->result);
    }
  }
  auto flight = std::make_shared<InFlight>();
  in_flight_.emplace(key, flight);
  lock.unlock();
  std::shared_ptr<const T> stored;
  try {
    std::unique_lock<std::mutex> memo_lock(memo_mu_, std::defer_lock);
    if (serialize_memo) memo_lock.lock();
    T result = compute();
    if (memo_lock.owns_lock()) memo_lock.unlock();
    lock.lock();
    ++stats_.computations;
    if (counts_sweep) ++stats_.sweeps;
    if (counts_states) stats_.states_explored += result.search.states_visited;
    const std::uint64_t bytes = result.approx_bytes();
    if (result.truncated) {
      // Never cached (budget-dependent noise), but still shared with the
      // threads that coalesced onto this computation.
      stored = std::make_shared<const T>(std::move(result));
    } else {
      stored = cache_->put(key, std::move(result), bytes);
    }
  } catch (...) {
    if (!lock.owns_lock()) lock.lock();
    in_flight_.erase(key);
    flight->done = true;  // null result: waiters retry
    flight->cv.notify_all();
    throw;
  }
  in_flight_.erase(key);
  flight->done = true;
  flight->result = std::static_pointer_cast<const void>(stored);
  flight->cv.notify_all();
  return stored;
}

// ----- relations / pair queries ---------------------------------------

std::shared_ptr<const OrderingRelations> AnalysisSession::relations_coalesced(
    std::unique_lock<std::mutex>& lock, Semantics semantics) {
  const CacheKey key = make_key(QueryKind::kRelations,
                                static_cast<std::uint8_t>(semantics), 0);
  return coalesced_query<OrderingRelations>(
      lock, key, /*serialize_memo=*/false, /*counts_sweep=*/true,
      [&] { return compute_exact(*trace_, semantics, options_); });
}

std::shared_ptr<const OrderingRelations> AnalysisSession::relations(
    Semantics semantics) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  return relations_coalesced(lock, semantics);
}

bool AnalysisSession::pair_query(const PairQuery& query) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  return relations_coalesced(lock, query.semantics)
      ->holds(query.relation, query.a, query.b);
}

std::vector<bool> AnalysisSession::query_batch(
    const std::vector<PairQuery>& queries, BatchRouting routing) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  stats_.batched_pairs += queries.size();
  std::vector<bool> answers(queries.size());
  // Indices still unanswered after (optional) oracle routing.
  std::vector<std::size_t> pending;
  if (routing == BatchRouting::kOracleFirst) {
    std::uint64_t offered = 0;
    std::uint64_t decided = 0;
    lock.unlock();
    {
      std::lock_guard<std::mutex> oracle_guard(oracle_mu_);
      SatOracle& oracle = oracle_locked();
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const PairQuery& q = queries[i];
        if (!oracle.available()) {
          pending.push_back(i);
          continue;
        }
        ++offered;
        const OracleVerdict v =
            oracle.query(q.relation, q.a, q.b, q.semantics);
        if (v == OracleVerdict::kUnknown) {
          pending.push_back(i);
        } else {
          ++decided;
          answers[i] = v == OracleVerdict::kProven;
        }
      }
    }
    lock.lock();
    stats_.oracle_pairs += offered;
    stats_.oracle_decided += decided;
  } else {
    pending.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) pending[i] = i;
  }
  // One sweep per DISTINCT semantics among the remaining pairs (at most
  // three); every answer after that is a bit read out of the shared
  // matrices.
  std::array<std::shared_ptr<const OrderingRelations>, 3> per_semantics;
  for (const std::size_t i : pending) {
    const PairQuery& q = queries[i];
    auto& rel = per_semantics[static_cast<std::size_t>(q.semantics)];
    if (rel == nullptr) rel = relations_coalesced(lock, q.semantics);
    answers[i] = rel->holds(q.relation, q.a, q.b);
  }
  return answers;
}

// ----- feasibility / coexistence --------------------------------------

std::shared_ptr<const CanPrecedeResult> AnalysisSession::feasibility_coalesced(
    std::unique_lock<std::mutex>& lock) {
  const CacheKey key =
      make_key(QueryKind::kFeasible, CacheKey::kNoSemantics, 0);
  return coalesced_query<CanPrecedeResult>(
      lock, key, /*serialize_memo=*/true, /*counts_sweep=*/true, [&] {
        ScheduleSpaceOptions options = space_options(/*build_coexist=*/false);
        options.warm_memo = warm_memo_locked(options);
        return compute_feasibility(*trace_, options);
      });
}

std::shared_ptr<const CanPrecedeResult> AnalysisSession::feasibility() {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  return feasibility_coalesced(lock);
}

bool AnalysisSession::feasible() {
  return feasibility()->feasible_nonempty;
}

std::shared_ptr<const CanPrecedeResult> AnalysisSession::coexistence_coalesced(
    std::unique_lock<std::mutex>& lock) {
  const CacheKey key =
      make_key(QueryKind::kCoexist, CacheKey::kNoSemantics, 0);
  return coalesced_query<CanPrecedeResult>(
      lock, key, /*serialize_memo=*/true, /*counts_sweep=*/true, [&] {
        ScheduleSpaceOptions options = space_options(/*build_coexist=*/true);
        // The warm memo only engages while still empty (matrix sweeps
        // must mark every expanded child); if this sweep is the one that
        // fills it, later feasibility queries answer from the root memo
        // hit.
        options.warm_memo = warm_memo_locked(options);
        return compute_can_precede(*trace_, options);
      });
}

std::shared_ptr<const CanPrecedeResult> AnalysisSession::coexistence() {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  return coexistence_coalesced(lock);
}

bool AnalysisSession::could_have_coexisted(EventId a, EventId b) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  return coexistence_coalesced(lock)->can_coexist[a].test(b);
}

// ----- deadlocks ------------------------------------------------------

std::shared_ptr<const DeadlockReport> AnalysisSession::deadlocks() {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  const CacheKey key =
      make_key(QueryKind::kDeadlock, CacheKey::kNoSemantics, 0);
  return coalesced_query<DeadlockReport>(
      lock, key, /*serialize_memo=*/false, /*counts_sweep=*/true, [&] {
        // The active ReductionMode is part of the options digest, so it
        // drives the computation too: two sessions differing only in
        // `reduction` cache reports computed under their own modes.
        DeadlockOptions options;
        static_cast<search::SearchOptions&>(options) = options_;
        // Unbudgeted in bytes, as it has always run.
        options.max_memory_bytes = 0;
        options.stepper.respect_dependences = options_.respect_dependences;
        return analyze_deadlocks(*trace_, options);
      });
}

// ----- races ----------------------------------------------------------

std::shared_ptr<const RaceReport> AnalysisSession::races(
    RaceDetector detector) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  const CacheKey key =
      make_key(QueryKind::kRaces, CacheKey::kNoSemantics,
               hash_mix(kRaceSalt, static_cast<std::uint64_t>(detector), 0));
  if (detector == RaceDetector::kExact) {
    // Share the sweep with relations(): exact races are bit reads over
    // the race-semantics CCW matrix, so the report's compute path
    // obtains those relations THROUGH the relations cache.  When the
    // session's own options already use race semantics
    // (causal_data_edges = false) that inner key IS the relations() key
    // and the two queries cost ONE sweep between them; otherwise the
    // race-semantics relations get their own cached entry, computed
    // once however many times races() is called.  The derived report
    // embeds the relations' SearchStats verbatim (counts_states = false
    // keeps states_explored single-counted), and a truncated sweep
    // makes a truncated — never cached — report, so the next caller
    // re-derives from a possibly-by-then-complete sweep.
    return coalesced_query<RaceReport>(
        lock, key, /*serialize_memo=*/false, /*counts_sweep=*/false,
        [&] {
          // Runs with mu_ RELEASED (coalesced_query's contract), so the
          // nested relations lookup takes it afresh — itself coalesced,
          // and dropped again before the derivation's bit reads.
          ExactOptions race_options = options_;
          race_options.causal_data_edges = false;
          CacheKey rel_key;
          rel_key.trace_fingerprint = fingerprint_;
          rel_key.kind = QueryKind::kRelations;
          rel_key.semantics = static_cast<std::uint8_t>(Semantics::kCausal);
          rel_key.options_digest = digest_options(race_options);
          std::unique_lock<std::mutex> inner(mu_);
          auto rel = coalesced_query<OrderingRelations>(
              inner, rel_key, /*serialize_memo=*/false,
              /*counts_sweep=*/true, [&] {
                return compute_exact(*trace_, Semantics::kCausal,
                                     race_options);
              });
          inner.unlock();
          return races_from_relations(*trace_, *rel);
        },
        /*counts_states=*/false);
  }
  return coalesced_query<RaceReport>(
      lock, key, /*serialize_memo=*/false, /*counts_sweep=*/false,
      [&] { return detect_races(*trace_, detector, options_); });
}

// ----- polynomial baselines -------------------------------------------

const VectorClockResult& AnalysisSession::vector_clocks() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!vc_.has_value()) vc_ = compute_vector_clocks(*trace_);
  return *vc_;
}

const HmwResult& AnalysisSession::hmw() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!hmw_.has_value()) hmw_ = compute_hmw(*trace_);
  return *hmw_;
}

const EgpResult& AnalysisSession::egp() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!egp_.has_value()) egp_ = compute_egp(*trace_);
  return *egp_;
}

const CombinedResult& AnalysisSession::combined() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!combined_.has_value()) combined_ = compute_combined(*trace_);
  return *combined_;
}

// ----- anytime --------------------------------------------------------

AnytimeQuery& AnalysisSession::anytime_locked(
    const std::vector<QueryBudget>& ladder) {
  // Reuse whenever possible: an empty ladder keeps whatever exists, an
  // equal ladder keeps the object AND its cached ladder runs (the
  // historic analyzer rebuilt on every non-empty ladder, equal or not,
  // throwing the cached runs away).  A flipped oracle switch (circuit
  // breaker) rebuilds too — the portfolio setting lives inside the
  // query object.
  if (!anytime_.has_value() ||
      (!ladder.empty() && anytime_->options().ladder != ladder) ||
      anytime_->options().use_sat_oracle != use_sat_oracle_) {
    AnytimeOptions options;
    options.ladder = ladder;  // empty -> AnytimeQuery fills the default
    options.exact = options_;
    options.use_sat_oracle = use_sat_oracle_;
    anytime_.emplace(*trace_, std::move(options));
  }
  return *anytime_;
}

AnytimeQuery& AnalysisSession::anytime(
    const std::vector<QueryBudget>& ladder) {
  std::lock_guard<std::mutex> lock(mu_);
  return anytime_locked(ladder);
}

BoundedVerdict AnalysisSession::anytime_verdict_locked(
    std::uint8_t which, EventId a, EventId b, Semantics semantics,
    const std::vector<QueryBudget>& ladder) {
  ++stats_.queries;
  static const std::vector<QueryBudget> kDefault =
      AnytimeOptions::default_ladder();
  const std::vector<QueryBudget>& effective =
      ladder.empty() ? kDefault : ladder;
  // The oracle switch is part of the digest: an `unknown` produced WITH
  // the portfolio rung is not the same computation as one without it, so
  // a breaker trip invalidates stale unknowns instead of serving them.
  const std::uint64_t requested_digest =
      hash_mix(ladder_digest(effective), use_sat_oracle_ ? 1 : 0, 0);
  const CacheKey key = make_key(
      QueryKind::kAnytimeVerdict, static_cast<std::uint8_t>(semantics),
      hash_mix(kVerdictSalt + which,
               (static_cast<std::uint64_t>(a) << 32) | b, 0));
  if (auto hit = cache_->get<CachedVerdict>(key)) {
    // Definitive verdicts are final whatever ladder produced them; an
    // `unknown` is only as good as its ladder — a caller presenting a
    // different one gets a recompute, which replaces the entry below.
    if (!hit->verdict.unknown() ||
        hit->ladder_digest == requested_digest) {
      ++stats_.cache_hits;
      return hit->verdict;
    }
  }
  AnytimeQuery& query = anytime_locked(effective);
  CachedVerdict cached;
  switch (which) {
    case 0:
      cached.verdict = query.must_have_happened_before(a, b, semantics);
      break;
    case 1:
      cached.verdict = query.could_have_been_concurrent(a, b);
      break;
    default:
      cached.verdict = query.can_deadlock();
      break;
  }
  cached.ladder_digest = requested_digest;
  ++stats_.computations;
  const std::uint64_t bytes = verdict_approx_bytes(cached);
  const BoundedVerdict verdict = cached.verdict;
  cache_->put(key, std::move(cached), bytes);
  return verdict;
}

BoundedVerdict AnalysisSession::anytime_must_have_happened_before(
    EventId a, EventId b, Semantics semantics,
    const std::vector<QueryBudget>& ladder) {
  std::lock_guard<std::mutex> lock(mu_);
  return anytime_verdict_locked(0, a, b, semantics, ladder);
}

BoundedVerdict AnalysisSession::anytime_could_have_been_concurrent(
    EventId a, EventId b, const std::vector<QueryBudget>& ladder) {
  std::lock_guard<std::mutex> lock(mu_);
  return anytime_verdict_locked(1, a, b, Semantics::kCausal, ladder);
}

BoundedVerdict AnalysisSession::anytime_can_deadlock(
    const std::vector<QueryBudget>& ladder) {
  std::lock_guard<std::mutex> lock(mu_);
  return anytime_verdict_locked(2, kNoEvent, kNoEvent, Semantics::kCausal,
                                ladder);
}

// ----- robustness hooks -----------------------------------------------

void AnalysisSession::set_use_sat_oracle(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  if (use_sat_oracle_ && !enabled) ++stats_.breaker_trips;
  use_sat_oracle_ = enabled;
}

bool AnalysisSession::use_sat_oracle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return use_sat_oracle_;
}

void AnalysisSession::note_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.shed;
}

void AnalysisSession::note_rejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.rejected;
}

void AnalysisSession::note_deadline_degraded() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.deadline_degraded;
}

}  // namespace evord::service
