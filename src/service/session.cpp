#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "trace/axioms.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace evord::service {

namespace {

/// Distinct salts per digest component / per derived cache key.
constexpr std::uint64_t kOptionsSalt = 0x0975;
constexpr std::uint64_t kRaceSalt = 0x7ace;
constexpr std::uint64_t kVerdictSalt = 0xa17e;
constexpr std::uint64_t kRungSalt = 0x2a9e;

using Clock = std::chrono::steady_clock;

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

/// True iff a ladder run answers its search's question without a
/// bigger rung: it is complete, or (deadlock) it holds a stuck witness,
/// which is valid however far the search got.
template <class T>
bool settled(const T& run) { return !run.truncated; }
bool settled(const DeadlockReport& run) {
  return run.can_deadlock || !run.truncated;
}

/// The evidence order: settled runs first, then by states expanded.
template <class T>
bool larger(const T& run, const T& than) {
  if (settled(run) != settled(than)) return settled(run);
  return run.search.states_visited > than.search.states_visited;
}

/// The last rung `provenance` records as tried, clamped to `ladder`
/// (a stored run may come from a longer one).
const QueryBudget& last_rung(const QueryProvenance& provenance,
                             const std::vector<QueryBudget>& ladder) {
  return ladder[std::clamp<std::size_t>(provenance.rungs_tried, 1,
                                        ladder.size()) -
                1];
}

BoundedVerdict deadlock_verdict(const DeadlockReport& run,
                                const QueryProvenance& provenance) {
  BoundedVerdict v;
  v.provenance = provenance;
  if (run.can_deadlock) {
    v.state = VerdictState::kProven;
    v.witness = run.witness_prefix;
  } else if (provenance.exact_complete) {
    // Refuting deadlock freedom needs the whole space.
    v.state = VerdictState::kRefuted;
  }
  return v;
}

/// Folds the search::SearchOptions fields a session's engines read into
/// `h`: every one but num_threads and steal, which no search reads.
std::uint64_t digest_budget(std::uint64_t h, const search::SearchOptions& o) {
  h = hash_mix(0x01, h, o.max_states);
  h = hash_mix(0x02, h, o.max_schedules);
  h = hash_mix(0x03, h, double_bits(o.time_budget_seconds));
  h = hash_mix(0x04, h, o.max_memory_bytes);
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

SatOracle& AnalysisSession::oracle_locked() {
  if (oracle_ == nullptr) {
    SatOracleOptions options;
    options.respect_dependences = options_.respect_dependences;
    options.causal_data_edges = options_.causal_data_edges;
    oracle_ = std::make_unique<SatOracle>(*trace_, options);
  }
  return *oracle_;
}

SatOracleStats AnalysisSession::oracle_stats() const {
  std::lock_guard<std::mutex> lock(oracle_mu_);
  return oracle_ == nullptr ? SatOracleStats{} : oracle_->stats();
}

// ----- the coalesced compute-once path --------------------------------

template <class T, class Compute>
std::shared_ptr<const T> AnalysisSession::coalesced_query(
    std::unique_lock<std::mutex>& lock, const CacheKey& key,
    bool counts_sweep, Compute&& compute, bool counts_states,
    const CacheKey* publish) {
  const CacheKey& cache_key = publish != nullptr ? *publish : key;
  for (;;) {
    if (auto hit = cache_->get<T>(cache_key)) {
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
    T result = compute();
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
      stored = cache_->put(cache_key, std::move(result), bytes);
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
      lock, key, /*counts_sweep=*/true,
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
    const std::vector<PairQuery>& queries) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  stats_.batched_pairs += queries.size();
  std::vector<bool> answers;
  answers.reserve(queries.size());
  // One sweep per DISTINCT semantics among the pairs (at most three);
  // every answer after that is a bit read out of the shared matrices.
  std::array<std::shared_ptr<const OrderingRelations>, 3> per_semantics;
  for (const PairQuery& q : queries) {
    auto& rel = per_semantics[static_cast<std::size_t>(q.semantics)];
    if (rel == nullptr) rel = relations_coalesced(lock, q.semantics);
    answers.push_back(rel->holds(q.relation, q.a, q.b));
  }
  return answers;
}

// ----- deadlocks ------------------------------------------------------

std::shared_ptr<const DeadlockReport> AnalysisSession::deadlocks() {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  const CacheKey key =
      make_key(QueryKind::kDeadlock, CacheKey::kNoSemantics, 0);
  return coalesced_query<DeadlockReport>(
      lock, key, /*counts_sweep=*/true, [&] {
        return analyze_deadlocks(*trace_, deadlock_options(options_));
      });
}

DeadlockOptions AnalysisSession::deadlock_options(
    const search::SearchOptions& budget) const {
  // Every SearchOptions field is in the options digest, so each drives
  // the search too (`reduction` and `max_memory_bytes` included).
  DeadlockOptions options;
  static_cast<search::SearchOptions&>(options) = budget;
  options.stepper.respect_dependences = options_.respect_dependences;
  return options;
}

// ----- races ----------------------------------------------------------

CacheKey AnalysisSession::race_key(RaceDetector detector) const {
  return make_key(
      QueryKind::kRaces, CacheKey::kNoSemantics,
      hash_mix(kRaceSalt, static_cast<std::uint64_t>(detector), 0));
}

std::shared_ptr<const RaceReport> AnalysisSession::races(
    RaceDetector detector) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  return races_coalesced(lock, detector);
}

std::shared_ptr<const RaceReport> AnalysisSession::races_coalesced(
    std::unique_lock<std::mutex>& lock, RaceDetector detector) {
  const CacheKey key = race_key(detector);
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
        lock, key, /*counts_sweep=*/false,
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
              inner, rel_key, /*counts_sweep=*/true, [&] {
                return compute_exact(*trace_, Semantics::kCausal,
                                     race_options);
              });
          inner.unlock();
          return races_from_relations(*trace_, *rel);
        },
        /*counts_states=*/false);
  }
  return coalesced_query<RaceReport>(
      lock, key, /*counts_sweep=*/false,
      [&] { return detect_races(*trace_, detector, options_); });
}

// ----- polynomial bounds ----------------------------------------------

const CombinedResult& AnalysisSession::combined() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!combined_.has_value()) combined_ = compute_combined(*trace_);
  return *combined_;
}

const VectorClockResult& AnalysisSession::observed() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!observed_.has_value()) {
    observed_ = compute_vector_clocks(
        *trace_, {.include_data_edges = options_.causal_data_edges,
                  .build_matrix = true});
  }
  return *observed_;
}

// ----- anytime --------------------------------------------------------

ExactOptions AnalysisSession::rung_options(const QueryBudget& rung) const {
  ExactOptions options = options_;
  options.max_states = rung.max_states;
  options.max_schedules = rung.max_schedules;
  options.max_memory_bytes = rung.max_memory_bytes;
  options.time_budget_seconds = rung.time_budget_seconds;
  return options;
}

template <class T, class Decide, class Rung>
BoundedVerdict AnalysisSession::climb(LadderRun<T>& slot,
                                      const Ladder& ladder,
                                      const CacheKey& publish,
                                      Decide&& decide, Rung&& rung) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<const T> stored = slot.result;
  const QueryProvenance stored_provenance = slot.provenance;
  const bool climbed = std::find(slot.climbed.begin(), slot.climbed.end(),
                                 ladder.digest) != slot.climbed.end();
  lock.unlock();
  OracleUse oracle =
      ladder.use_oracle ? OracleUse::kBuild : OracleUse::kNone;
  if (stored != nullptr && (climbed || settled(*stored))) {
    return decide(*stored, stored_provenance, oracle);
  }
  bool oracle_exhausted = false;
  if (stored != nullptr) {
    // Another ladder's run: whatever it, the bounds or the warm oracle
    // decide is definitive for this ladder too, so climb only past them.
    const BoundedVerdict v =
        decide(*stored, stored_provenance,
               ladder.use_oracle ? OracleUse::kIfBuilt : OracleUse::kNone);
    if (!v.unknown()) return v;
    // The oracle already burned this ladder's budget on the pair.
    oracle_exhausted = v.provenance.oracle_exhausted;
    if (oracle_exhausted) oracle = OracleUse::kNone;
  }
  const Clock::time_point start = Clock::now();
  std::shared_ptr<const T> run;
  QueryProvenance p;
  lock.lock();
  for (const QueryBudget& budget : ladder.rungs) {
    const CacheKey in_flight = make_key(
        publish.kind, publish.semantics,
        hash_mix(kRungSalt, ladder_digest({budget}), publish.options_digest));
    run = coalesced_query<T>(
        lock, in_flight, /*counts_sweep=*/true,
        [&] { return rung(rung_options(budget)); }, /*counts_states=*/true,
        &publish);
    ++p.rungs_tried;
    if (settled(*run)) break;
  }
  p.truncated = run->truncated;
  p.exact_complete = !p.truncated;
  p.engine = p.exact_complete ? "exact" : "exact-partial";
  p.stop_reason = run->search.stop_reason;
  p.states_visited = run->search.states_visited;
  p.memo_bytes = run->search.memo_bytes;
  p.seconds_spent =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (slot.result == nullptr || larger(*run, *slot.result)) {
    slot.result = run;
    slot.provenance = p;
  }
  slot.climbed.push_back(ladder.digest);
  lock.unlock();
  BoundedVerdict v = decide(*run, p, oracle);
  v.provenance.oracle_exhausted |= oracle_exhausted;
  return v;
}

BoundedVerdict AnalysisSession::relation_verdict(
    RelationKind kind, EventId a, EventId b, Semantics semantics,
    const OrderingRelations& run, const QueryProvenance& provenance,
    const std::vector<QueryBudget>& ladder, OracleUse oracle) {
  BoundedVerdict v;
  v.provenance = provenance;
  // The combined fixpoint's guaranteed orderings are a subset of exact
  // causal MHB under full F3 feasibility with data edges in the causal
  // order; under any other exact configuration the inclusion argument
  // does not hold, so the bounds are not used.
  const bool bounds = semantics == Semantics::kCausal &&
                      options_.respect_dependences &&
                      options_.causal_data_edges;
  if (kind == RelationKind::kMHB) {
    // Complete: the bit IS the Table-1 answer.  Truncated: the must-
    // matrix intersects over a SUBSET of the feasible causal classes, so
    // it over-approximates — a clear bit is still a sound refutation.
    if (!run.holds(kind, a, b)) {
      v.state = VerdictState::kRefuted;
      return v;
    }
    if (provenance.exact_complete) {
      v.state = VerdictState::kProven;
      return v;
    }
    // Degrade: the combined fixpoint is a sound subset of exact MHB.
    if (bounds && combined().guaranteed.holds(a, b)) {
      v.state = VerdictState::kProven;
      v.provenance.engine = "combined";
      return v;
    }
  } else {
    // The could-matrices union over the visited classes: a set bit is a
    // sound proof whether or not the run truncated.
    if (run.holds(kind, a, b)) {
      v.state = VerdictState::kProven;
      return v;
    }
    if (provenance.exact_complete) {
      v.state = VerdictState::kRefuted;
      return v;
    }
    if (bounds) {
      // The observed execution is itself feasible, so what it shows is
      // an existence proof; an ordering guaranteed in EVERY feasible
      // execution refutes (the temporal order is a strict order).
      const RelationMatrix& seen = observed().happened_before;
      const RelationMatrix& always = combined().guaranteed;
      const bool shown = kind == RelationKind::kCHB
                             ? seen.holds(a, b)
                             : a != b && !seen.holds(a, b) &&
                                   !seen.holds(b, a);
      if (shown) {
        v.state = VerdictState::kProven;
        v.provenance.engine = "vector-clock";
        return v;
      }
      const bool ruled_out = kind == RelationKind::kCHB
                                 ? a != b && always.holds(b, a)
                                 : always.holds(a, b) || always.holds(b, a);
      if (ruled_out) {
        v.state = VerdictState::kRefuted;
        v.provenance.engine = "combined";
        return v;
      }
    }
  }
  // Portfolio: the SAT oracle settles pairs the enumeration wall hid.
  consult_oracle(kind, a, b, semantics, last_rung(provenance, ladder), oracle,
                 v);
  return v;
}

BoundedVerdict AnalysisSession::race_verdict(
    EventId a, EventId b, const RaceReport& run,
    const QueryProvenance& provenance) {
  BoundedVerdict v;
  v.provenance = provenance;
  if (run.contains(a, b)) {
    // A truncated exact detector under-reports, so a reported race is
    // a reported race.
    v.state = VerdictState::kProven;
    return v;
  }
  if (provenance.exact_complete) {
    v.state = VerdictState::kRefuted;
    return v;
  }
  // Degrade: the guaranteed detector never misses a race (it clears a
  // pair only on sound must-orderings), so its silence refutes.
  std::unique_lock<std::mutex> lock(mu_);
  const auto guaranteed = races_coalesced(lock, RaceDetector::kGuaranteed);
  lock.unlock();
  if (!guaranteed->contains(a, b)) {
    v.state = VerdictState::kRefuted;
    v.provenance.engine = "guaranteed-races";
  }
  return v;
}

void AnalysisSession::consult_oracle(RelationKind kind, EventId a, EventId b,
                                     Semantics semantics,
                                     const QueryBudget& rung, OracleUse use,
                                     BoundedVerdict& v) {
  if (use == OracleUse::kNone) return;
  std::lock_guard<std::mutex> guard(oracle_mu_);
  if (use == OracleUse::kIfBuilt && oracle_ == nullptr) return;
  SatOracle& oracle = oracle_locked();
  if (!oracle.available()) return;
  // Zero conflicts fall back to the oracle's own default budget; zero
  // seconds leave the call bounded by conflicts alone.
  oracle.set_call_budget(rung.max_conflicts, rung.time_budget_seconds);
  const std::uint64_t undecided_before = oracle.stats().sat_undecided;
  const OracleVerdict verdict = oracle.query(kind, a, b, semantics);
  if (verdict == OracleVerdict::kUnknown) {
    // Distinguish "the oracle burned its conflict or time budget" from
    // "the oracle was structurally unable to answer": only the former
    // grows sat_undecided, and only the former should feed a circuit
    // breaker.
    if (oracle.stats().sat_undecided > undecided_before) {
      v.provenance.oracle_exhausted = true;
    }
    return;
  }
  v.state = verdict == OracleVerdict::kProven ? VerdictState::kProven
                                              : VerdictState::kRefuted;
  // Keep the base run's truncation provenance (it is what forced the
  // portfolio consult); only the deciding engine changes.
  v.provenance.engine = "sat-oracle";
  if (oracle.last_witness().has_value()) v.witness = *oracle.last_witness();
}

BoundedVerdict AnalysisSession::anytime_verdict(
    Ask ask, EventId a, EventId b, Semantics semantics,
    const std::vector<QueryBudget>& ladder) {
  static const std::vector<QueryBudget> kDefault =
      AnytimeOptions::default_ladder();
  const std::vector<QueryBudget>& rungs = ladder.empty() ? kDefault : ladder;
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.queries;
  const Ladder climbing{rungs, ladder_digest(rungs), use_sat_oracle_};
  // The oracle switch is part of the digest: an `unknown` produced WITH
  // the portfolio rung is not the same computation as one without it, so
  // a breaker trip invalidates stale unknowns instead of serving them.
  const std::uint64_t requested_digest =
      hash_mix(climbing.digest, climbing.use_oracle ? 1 : 0, 0);
  const CacheKey key = make_key(
      QueryKind::kAnytimeVerdict, static_cast<std::uint8_t>(semantics),
      hash_mix(kVerdictSalt + static_cast<std::uint64_t>(ask),
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
  lock.unlock();
  CachedVerdict cached;
  switch (ask) {
    case Ask::kDeadlock:
      cached.verdict = climb(
          deadlock_run_, climbing,
          make_key(QueryKind::kDeadlock, CacheKey::kNoSemantics, 0),
          [](const DeadlockReport& run, const QueryProvenance& p,
             OracleUse) { return deadlock_verdict(run, p); },
          [&](const ExactOptions& budget) {
            return analyze_deadlocks(*trace_, deadlock_options(budget));
          });
      break;
    case Ask::kRace:
      cached.verdict = climb(
          race_run_, climbing, race_key(RaceDetector::kExact),
          [&](const RaceReport& run, const QueryProvenance& p, OracleUse) {
            return race_verdict(a, b, run, p);
          },
          [&](const ExactOptions& budget) {
            return detect_races_exact(*trace_, budget);
          });
      break;
    default: {
      const RelationKind kind = ask == Ask::kMHB   ? RelationKind::kMHB
                                : ask == Ask::kCHB ? RelationKind::kCHB
                                                   : RelationKind::kCCW;
      cached.verdict = climb(
          relation_runs_[static_cast<std::size_t>(semantics)], climbing,
          make_key(QueryKind::kRelations,
                   static_cast<std::uint8_t>(semantics), 0),
          [&](const OrderingRelations& run, const QueryProvenance& p,
              OracleUse oracle) {
            return relation_verdict(kind, a, b, semantics, run, p, rungs,
                                    oracle);
          },
          [&](const ExactOptions& budget) {
            return compute_exact(*trace_, semantics, budget);
          });
      break;
    }
  }
  cached.ladder_digest = requested_digest;
  lock.lock();
  ++stats_.computations;
  const std::uint64_t bytes = verdict_approx_bytes(cached);
  const BoundedVerdict verdict = cached.verdict;
  cache_->put(key, std::move(cached), bytes);
  return verdict;
}

BoundedVerdict AnalysisSession::anytime_must_have_happened_before(
    EventId a, EventId b, Semantics semantics,
    const std::vector<QueryBudget>& ladder) {
  return anytime_verdict(Ask::kMHB, a, b, semantics, ladder);
}

BoundedVerdict AnalysisSession::anytime_could_have_happened_before(
    EventId a, EventId b, Semantics semantics,
    const std::vector<QueryBudget>& ladder) {
  return anytime_verdict(Ask::kCHB, a, b, semantics, ladder);
}

BoundedVerdict AnalysisSession::anytime_could_have_been_concurrent(
    EventId a, EventId b, const std::vector<QueryBudget>& ladder) {
  return anytime_verdict(Ask::kCCW, a, b, Semantics::kCausal, ladder);
}

BoundedVerdict AnalysisSession::anytime_race_between(
    EventId a, EventId b, const std::vector<QueryBudget>& ladder) {
  return anytime_verdict(Ask::kRace, a, b, Semantics::kCausal, ladder);
}

BoundedVerdict AnalysisSession::anytime_can_deadlock(
    const std::vector<QueryBudget>& ladder) {
  return anytime_verdict(Ask::kDeadlock, kNoEvent, kNoEvent,
                         Semantics::kCausal, ladder);
}

// ----- robustness hooks -----------------------------------------------

void AnalysisSession::set_use_sat_oracle(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  use_sat_oracle_ = enabled;
}

bool AnalysisSession::use_sat_oracle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return use_sat_oracle_;
}

}  // namespace evord::service
