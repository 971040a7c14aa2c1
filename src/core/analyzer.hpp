// OrderingAnalyzer: the library's front door.
//
//   Trace t = ...;                       // build, parse, or run a Program
//   OrderingAnalyzer an(t);              // causal semantics by default
//   an.must_have_happened_before(a, b);  // exact, Table-1 MHB
//   an.could_have_been_concurrent(a, b); // exact CCW (potential race)
//   an.races(RaceDetector::kExact);      // exhaustive race report
//   an.report();                         // human-readable summary
//
// Since the service refactor the analyzer is a thin CLIENT of an
// AnalysisSession (src/service/session.hpp): every exact result is
// computed once through the session's result cache and pinned here, so
// the historic contract — lazy computation, one analysis per semantics,
// stable references across calls — is unchanged, while the same session
// (and therefore every cached result) can be shared service-wide by
// constructing the analyzer over a TraceRegistry session.  The
// polynomial baselines (vector clocks, HMW, EGP) are exposed alongside
// for comparison, and the budgeted anytime verdicts forward to the
// session's climb under its default ladder.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "approx/combined.hpp"
#include "approx/egp.hpp"
#include "approx/hmw.hpp"
#include "approx/vector_clock.hpp"
#include "feasible/deadlock.hpp"
#include "feasible/schedule_space.hpp"
#include "ordering/exact.hpp"
#include "ordering/witness.hpp"
#include "race/race_detector.hpp"
#include "resilience/anytime.hpp"
#include "service/session.hpp"
#include "trace/trace.hpp"

namespace evord {

class OrderingAnalyzer {
 public:
  /// Private-session form: owns its trace and an AnalysisSession with a
  /// private result cache (the historic behavior, byte for byte).
  explicit OrderingAnalyzer(Trace trace, ExactOptions options = {});
  /// Service-client form: analyze through an existing (e.g.
  /// TraceRegistry-shared) session, reusing everything it has cached.
  explicit OrderingAnalyzer(
      std::shared_ptr<service::AnalysisSession> session);

  const Trace& trace() const { return session_->trace(); }
  const ExactOptions& options() const { return session_->options(); }

  /// The backing session (shared cache stats, batched pair queries...).
  service::AnalysisSession& session() { return *session_; }

  /// The full exact relations under `semantics` (computed once, cached).
  const OrderingRelations& relations(
      Semantics semantics = Semantics::kCausal);

  // ----- exact pair queries (causal semantics unless stated) ----------
  bool must_have_happened_before(EventId a, EventId b,
                                 Semantics semantics = Semantics::kCausal);
  bool could_have_happened_before(EventId a, EventId b,
                                  Semantics semantics = Semantics::kCausal);
  bool must_have_been_concurrent(EventId a, EventId b);
  bool could_have_been_concurrent(EventId a, EventId b);
  bool must_have_been_ordered(EventId a, EventId b);
  bool could_have_been_ordered(EventId a, EventId b);

  // ----- witnesses ------------------------------------------------------
  std::optional<std::vector<EventId>> witness_happened_before(
      EventId a, EventId b, Semantics semantics = Semantics::kCausal);
  std::optional<std::vector<EventId>> witness_concurrent(EventId a,
                                                         EventId b);

  // ----- polynomial baselines (computed once, cached) ------------------
  const VectorClockResult& vector_clocks();
  /// Semaphore traces only.
  const HmwResult& hmw();
  /// Event-style traces only.
  const EgpResult& egp();
  /// The dependence-aware combined guaranteed-orderings engine (any
  /// trace); a sound polynomial subset of exact MHB.
  const CombinedResult& combined();

  // ----- further exhaustive analyses ------------------------------------
  /// Could any feasible schedule prefix wedge?  (Exponential search.)
  const DeadlockReport& deadlocks();
  /// could-have-run-simultaneously: true iff some feasible state has
  /// both events enabled at once (see ScheduleSpaceOptions).
  bool could_have_coexisted(EventId a, EventId b);

  // ----- applications ----------------------------------------------------
  /// Cached per detector (the historic analyzer reran the exponential
  /// exact detection on every call AND returned the report by value;
  /// the reference is pinned for the analyzer's lifetime like every
  /// other cached result here).
  const RaceReport& races(RaceDetector detector = RaceDetector::kExact);

  // ----- resource-governed anytime queries ------------------------------
  /// The budgeted variants (src/resilience/anytime.hpp): instead of an
  /// exact answer that may take exponential resources, each returns a
  /// BoundedVerdict {proven | refuted | unknown} obtained within the
  /// session's default budget ladder, degrading to sound one-sided
  /// bounds with full provenance when every rung truncates.
  BoundedVerdict anytime_must_have_happened_before(
      EventId a, EventId b, Semantics semantics = Semantics::kCausal);
  BoundedVerdict anytime_could_have_been_concurrent(EventId a, EventId b);
  BoundedVerdict anytime_can_deadlock();

  /// Unified search-core statistics (states, dedup hits, memo bytes,
  /// stop reason, per-worker scheduler counters, per-depth state
  /// histogram, fingerprint shard loads) of the exact analysis under
  /// `semantics`; runs the analysis if not yet cached.
  const search::SearchStats& search_stats(
      Semantics semantics = Semantics::kCausal);

  /// Multi-line human-readable summary of the trace and its exact
  /// relations under the given semantics.
  std::string report(Semantics semantics = Semantics::kCausal);

 private:
  std::shared_ptr<service::AnalysisSession> session_;
  // Pinned session results: keep every result this analyzer ever handed
  // out alive (and its references stable) regardless of result-cache
  // eviction — the historic reference-stability contract.
  std::array<std::shared_ptr<const OrderingRelations>, 3> relations_;
  std::shared_ptr<const DeadlockReport> deadlocks_;
  std::shared_ptr<const CanPrecedeResult> coexist_;
  std::array<std::shared_ptr<const RaceReport>, 3> races_;
};

}  // namespace evord
