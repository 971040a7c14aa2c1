#include "race/race_detector.hpp"

#include <algorithm>
#include <sstream>

#include "approx/combined.hpp"
#include "approx/vector_clock.hpp"
#include "graph/reachability.hpp"
#include "ordering/causal.hpp"

namespace evord {

const char* to_string(RaceDetector detector) {
  switch (detector) {
    case RaceDetector::kExact:
      return "exact";
    case RaceDetector::kObserved:
      return "observed";
    case RaceDetector::kGuaranteed:
      return "guaranteed";
  }
  return "?";
}

bool RaceReport::contains(EventId a, EventId b) const {
  if (a > b) std::swap(a, b);
  return std::any_of(races.begin(), races.end(), [&](const Race& r) {
    return r.a == a && r.b == b;
  });
}

std::string RaceReport::summary(const Trace& trace) const {
  std::ostringstream os;
  os << to_string(detector) << " detector: " << races.size() << " race(s) in "
     << candidate_pairs << " conflicting pair(s)";
  if (truncated) {
    os << " [truncated search: " << search::to_string(search.stop_reason)
       << "]";
  }
  os << '\n';
  for (const Race& r : races) {
    os << "  " << describe(trace.event(r.a)) << " <-> "
       << describe(trace.event(r.b));
    if (r.hidden_in_observed) os << "  (ordered in the observed execution)";
    os << '\n';
  }
  return os.str();
}

namespace {

RaceReport from_unordered_pairs(const Trace& trace,
                                const RelationMatrix& ordered,
                                RaceDetector detector) {
  // `ordered` is a happened-before-style relation; a candidate pair races
  // iff unordered in both directions.
  RaceReport report;
  report.detector = detector;
  const TransitiveClosure observed =
      observed_causal_closure(trace, {.include_data_edges = false});
  for (const auto& [a, b] : trace.conflicting_pairs()) {
    ++report.candidate_pairs;
    if (!ordered.holds(a, b) && !ordered.holds(b, a)) {
      Race r;
      r.a = std::min(a, b);
      r.b = std::max(a, b);
      r.hidden_in_observed = !observed.incomparable(a, b);
      report.races.push_back(r);
    }
  }
  return report;
}

}  // namespace

RaceReport races_from_relations(const Trace& trace,
                                const OrderingRelations& relations) {
  RaceReport report;
  report.detector = RaceDetector::kExact;
  report.truncated = relations.truncated;
  report.search = relations.search;
  const TransitiveClosure observed =
      observed_causal_closure(trace, {.include_data_edges = false});
  for (const auto& [a, b] : trace.conflicting_pairs()) {
    ++report.candidate_pairs;
    if (relations.holds(RelationKind::kCCW, a, b)) {
      Race r;
      r.a = std::min(a, b);
      r.b = std::max(a, b);
      r.hidden_in_observed = !observed.incomparable(a, b);
      report.races.push_back(r);
    }
  }
  return report;
}

RaceReport detect_races_exact(const Trace& trace,
                              const ExactOptions& options) {
  // Race semantics (Netzer & Miller [10]): concurrency is judged against
  // the SYNCHRONIZATION-only happened-before of each feasible execution;
  // the shared-data dependences still restrict which executions are
  // feasible (F3), they just do not count as orderings of the racing
  // pair itself.
  ExactOptions race_options = options;
  race_options.causal_data_edges = false;
  const OrderingRelations rel =
      compute_exact(trace, Semantics::kCausal, race_options);
  return races_from_relations(trace, rel);
}

RaceReport detect_races_observed(const Trace& trace) {
  const VectorClockResult vc = compute_vector_clocks(trace);
  return from_unordered_pairs(trace, vc.happened_before,
                              RaceDetector::kObserved);
}

RaceReport detect_races_guaranteed(const Trace& trace) {
  // The combined polynomial engine, WITHOUT the data edges: a racing
  // pair must be cleared by synchronization orderings only (its own
  // conflict edge is the thing under test).  Handles semaphore,
  // event-style and mixed traces uniformly.
  const CombinedResult combined =
      compute_combined(trace, {.include_data_edges = false});
  return from_unordered_pairs(trace, combined.guaranteed,
                              RaceDetector::kGuaranteed);
}

RaceReport detect_races(const Trace& trace, RaceDetector detector,
                        const ExactOptions& options) {
  switch (detector) {
    case RaceDetector::kExact:
      return detect_races_exact(trace, options);
    case RaceDetector::kObserved:
      return detect_races_observed(trace);
    case RaceDetector::kGuaranteed:
      return detect_races_guaranteed(trace);
  }
  return {};
}

std::uint64_t RaceReport::approx_bytes() const {
  return sizeof(RaceReport) + search.heap_bytes() +
         races.capacity() * sizeof(Race);
}

}  // namespace evord
