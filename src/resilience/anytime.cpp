#include "resilience/anytime.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "ordering/witness.hpp"
#include "trace/axioms.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace evord {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Hard cap on witness-extraction enumeration when the rung that
/// produced the verdict carries no schedule budget of its own.
constexpr std::uint64_t kWitnessScheduleCap = 1 << 14;

}  // namespace

const char* to_string(VerdictState state) {
  switch (state) {
    case VerdictState::kUnknown:
      return "unknown";
    case VerdictState::kProven:
      return "proven";
    case VerdictState::kRefuted:
      return "refuted";
  }
  return "?";
}

std::string QueryProvenance::summary() const {
  std::ostringstream os;
  os << "engine=" << engine;
  if (exact_complete) {
    os << " (complete)";
  } else if (truncated) {
    os << " (truncated)";
  }
  os << " rungs=" << rungs_tried;
  if (stop_reason != search::StopReason::kNone) {
    os << " stopped-by=" << search::to_string(stop_reason);
  }
  os << " states=" << states_visited << " memo-bytes=" << memo_bytes
     << " seconds=" << seconds_spent;
  if (oracle_exhausted) os << " oracle-exhausted";
  return os.str();
}

std::string BoundedVerdict::summary() const {
  std::string line = to_string(state);
  line += " [";
  line += provenance.summary();
  line += ']';
  if (witness.has_value()) {
    line += " witness-length=" + std::to_string(witness->size());
  }
  return line;
}

std::uint64_t ladder_digest(const std::vector<QueryBudget>& ladder) {
  std::uint64_t h = hash_mix(0x1adde4, ladder.size(), 0);
  for (const QueryBudget& rung : ladder) {
    h = hash_mix(0x01, h, rung.max_states);
    h = hash_mix(0x02, h, rung.max_schedules);
    h = hash_mix(0x03, h, rung.max_memory_bytes);
    std::uint64_t seconds_bits = 0;
    static_assert(sizeof(seconds_bits) == sizeof(rung.time_budget_seconds));
    std::memcpy(&seconds_bits, &rung.time_budget_seconds,
                sizeof(seconds_bits));
    h = hash_mix(0x04, h, seconds_bits);
    h = hash_mix(0x05, h, rung.max_conflicts);
  }
  return h;
}

std::vector<QueryBudget> AnytimeOptions::default_ladder() {
  // Deterministic axes only (no wall-clock rungs): states/schedules and
  // bytes escalate ~16x per rung, so an answer the small rung can give
  // is never paid for at the big rung's price.
  return {
      QueryBudget{.max_states = std::size_t{1} << 12,
                  .max_schedules = std::uint64_t{1} << 12,
                  .max_memory_bytes = std::uint64_t{1} << 20,
                  .time_budget_seconds = 0.0,
                  .max_conflicts = std::uint64_t{1} << 14},
      QueryBudget{.max_states = std::size_t{1} << 16,
                  .max_schedules = std::uint64_t{1} << 16,
                  .max_memory_bytes = std::uint64_t{16} << 20,
                  .time_budget_seconds = 0.0,
                  .max_conflicts = std::uint64_t{1} << 17},
      QueryBudget{.max_states = std::size_t{1} << 20,
                  .max_schedules = std::uint64_t{1} << 20,
                  .max_memory_bytes = std::uint64_t{256} << 20,
                  .time_budget_seconds = 0.0,
                  .max_conflicts = std::uint64_t{1} << 20},
  };
}

std::vector<QueryBudget> deadline_ladder(double deadline_seconds) {
  std::vector<QueryBudget> ladder = AnytimeOptions::default_ladder();
  if (deadline_seconds <= 0.0) return ladder;
  // Slices sum to 1 so the ladder as a whole respects the deadline;
  // early rungs get small shares because they usually answer in far
  // less (their state caps trip first) and any unused slice implicitly
  // rolls forward as the later rungs start sooner.
  constexpr double kSlices[] = {0.125, 0.25, 0.625};
  constexpr double kMinSlice = 0.001;  // 1 ms: always allow some progress
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const double share = i < std::size(kSlices) ? kSlices[i] : kSlices[2];
    ladder[i].time_budget_seconds =
        std::max(kMinSlice, deadline_seconds * share);
  }
  return ladder;
}

AnytimeQuery::AnytimeQuery(const Trace& trace, AnytimeOptions options)
    : trace_(trace), options_(std::move(options)) {
  if (options_.ladder.empty()) {
    options_.ladder = AnytimeOptions::default_ladder();
  }
  const AxiomReport axioms = validate_axioms(trace_);
  EVORD_CHECK(axioms.ok(),
              "trace violates model axioms:\n" << axioms.text());
}

ExactOptions AnytimeQuery::rung_options(const QueryBudget& rung) const {
  ExactOptions eo = options_.exact;
  eo.max_states = rung.max_states;
  eo.max_schedules = rung.max_schedules;
  eo.max_memory_bytes = rung.max_memory_bytes;
  eo.time_budget_seconds = rung.time_budget_seconds;
  return eo;
}

ExactOptions AnytimeQuery::witness_options(
    const QueryProvenance& provenance) const {
  const std::size_t rung =
      provenance.rungs_tried == 0
          ? 0
          : std::min(provenance.rungs_tried, options_.ladder.size()) - 1;
  ExactOptions eo = rung_options(options_.ladder[rung]);
  // Witnesses are best-effort decoration on an already-sound verdict,
  // and their extraction enumerates plain schedules — which charge no
  // dedup store, so a bytes-only rung would leave them unbounded.
  // Always cap the enumeration; a missed witness just stays nullopt.
  if (eo.max_schedules == 0) eo.max_schedules = kWitnessScheduleCap;
  return eo;
}

bool AnytimeQuery::causal_bounds_apply(Semantics semantics) const {
  // The combined fixpoint's guaranteed orderings are a subset of exact
  // causal MHB under full F3 feasibility with data edges in the causal
  // order; under any other exact configuration the inclusion argument
  // does not hold, so the bound is not used.
  return semantics == Semantics::kCausal &&
         options_.exact.respect_dependences &&
         options_.exact.causal_data_edges;
}

const CombinedResult& AnytimeQuery::combined() {
  if (!combined_.has_value()) combined_ = compute_combined(trace_);
  return *combined_;
}

SatOracle& AnytimeQuery::oracle() {
  if (oracle_ == nullptr) {
    SatOracleOptions so;
    so.respect_dependences = options_.exact.respect_dependences;
    so.causal_data_edges = options_.exact.causal_data_edges;
    oracle_ = std::make_unique<SatOracle>(trace_, so);
  }
  return *oracle_;
}

bool AnytimeQuery::oracle_decides(RelationKind kind, EventId a, EventId b,
                                  Semantics semantics, BoundedVerdict& v) {
  if (!options_.use_sat_oracle) return false;
  SatOracle& o = oracle();
  if (!o.available()) return false;
  // Conflict budget of the rung whose run produced this verdict (the
  // last one attempted); 0 falls back to the oracle's own default.
  const std::size_t rung =
      v.provenance.rungs_tried == 0
          ? 0
          : std::min(v.provenance.rungs_tried, options_.ladder.size()) - 1;
  o.set_max_conflicts(options_.ladder[rung].max_conflicts);
  const std::uint64_t undecided_before = o.stats().sat_undecided;
  const OracleVerdict ov = o.query(kind, a, b, semantics);
  if (ov == OracleVerdict::kUnknown) {
    // Distinguish "the oracle burned its conflict budget" from "the
    // oracle was structurally unable to answer": only the former grows
    // sat_undecided, and only the former should feed a circuit breaker.
    if (o.stats().sat_undecided > undecided_before) {
      v.provenance.oracle_exhausted = true;
    }
    return false;
  }
  v.state = ov == OracleVerdict::kProven ? VerdictState::kProven
                                         : VerdictState::kRefuted;
  // Keep the base run's truncation provenance (it is what forced the
  // portfolio consult); only the deciding engine changes.
  v.provenance.engine = "sat-oracle";
  if (o.last_witness().has_value()) v.witness = *o.last_witness();
  return true;
}

const VectorClockResult& AnytimeQuery::observed() {
  if (!observed_.has_value()) {
    // Match the exact causal order's edge set, so that an observed
    // ordering / incomparability is an existence proof for the same
    // relation the exact engine computes.
    observed_ = compute_vector_clocks(
        trace_, {.include_data_edges = options_.exact.causal_data_edges,
                 .build_matrix = true});
  }
  return *observed_;
}

const AnytimeQuery::LadderRun& AnytimeQuery::exact_run(Semantics semantics) {
  auto& slot = exact_[static_cast<std::size_t>(semantics)];
  if (slot.has_value()) return *slot;
  ++climbs_;
  const Clock::time_point start = Clock::now();
  LadderRun run;
  for (std::size_t i = 0; i < options_.ladder.size(); ++i) {
    run.relations =
        compute_exact(trace_, semantics, rung_options(options_.ladder[i]));
    run.provenance.rungs_tried = i + 1;
    if (!run.relations.truncated) break;
  }
  QueryProvenance& p = run.provenance;
  p.truncated = run.relations.truncated;
  p.exact_complete = !p.truncated;
  p.engine = p.exact_complete ? "exact" : "exact-partial";
  p.stop_reason = run.relations.search.stop_reason;
  p.states_visited = run.relations.search.states_visited;
  p.memo_bytes = run.relations.search.memo_bytes;
  p.seconds_spent = seconds_since(start);
  slot = std::move(run);
  return *slot;
}

BoundedVerdict AnytimeQuery::must_have_happened_before(EventId a, EventId b,
                                                       Semantics semantics) {
  const LadderRun& run = exact_run(semantics);
  BoundedVerdict v;
  v.provenance = run.provenance;
  // Complete: the bit IS the Table-1 answer.  Truncated: the must-matrix
  // intersects over a SUBSET of the feasible causal classes, so it
  // over-approximates — a clear bit is still a sound refutation.
  if (!run.relations.holds(RelationKind::kMHB, a, b)) {
    v.state = VerdictState::kRefuted;
    v.witness =
        refute_must_happen_before(trace_, a, b, semantics,
                                  witness_options(run.provenance));
    return v;
  }
  if (run.provenance.exact_complete) {
    v.state = VerdictState::kProven;
    return v;
  }
  // Degrade: the combined fixpoint is a sound subset of exact MHB.
  if (causal_bounds_apply(semantics) && combined().guaranteed.holds(a, b)) {
    v.state = VerdictState::kProven;
    v.provenance.engine = "combined";
    return v;
  }
  // Portfolio: the SAT oracle settles pairs the enumeration wall hid.
  if (oracle_decides(RelationKind::kMHB, a, b, semantics, v)) return v;
  v.state = VerdictState::kUnknown;
  return v;
}

BoundedVerdict AnytimeQuery::could_have_happened_before(EventId a, EventId b,
                                                        Semantics semantics) {
  const LadderRun& run = exact_run(semantics);
  BoundedVerdict v;
  v.provenance = run.provenance;
  // The could-matrix unions over the visited classes: a set bit is a
  // sound proof whether or not the run truncated.
  if (run.relations.holds(RelationKind::kCHB, a, b)) {
    v.state = VerdictState::kProven;
    v.witness = witness_could_happen_before(trace_, a, b, semantics,
                                            witness_options(run.provenance));
    return v;
  }
  if (run.provenance.exact_complete) {
    v.state = VerdictState::kRefuted;
    return v;
  }
  if (causal_bounds_apply(semantics)) {
    // The observed execution is itself feasible: an observed ordering is
    // an existence proof.
    if (observed().happened_before.holds(a, b)) {
      v.state = VerdictState::kProven;
      v.provenance.engine = "vector-clock";
      v.witness = witness_could_happen_before(
          trace_, a, b, semantics, witness_options(run.provenance));
      return v;
    }
    // b guaranteed-before a in EVERY feasible execution refutes a T b
    // (the temporal order is a strict order).
    if (a != b && combined().guaranteed.holds(b, a)) {
      v.state = VerdictState::kRefuted;
      v.provenance.engine = "combined";
      return v;
    }
  }
  if (oracle_decides(RelationKind::kCHB, a, b, semantics, v)) return v;
  v.state = VerdictState::kUnknown;
  return v;
}

BoundedVerdict AnytimeQuery::could_have_been_concurrent(EventId a,
                                                        EventId b) {
  const LadderRun& run = exact_run(Semantics::kCausal);
  BoundedVerdict v;
  v.provenance = run.provenance;
  if (run.relations.holds(RelationKind::kCCW, a, b)) {
    v.state = VerdictState::kProven;
    v.witness = witness_could_be_concurrent(trace_, a, b,
                                            witness_options(run.provenance));
    return v;
  }
  if (run.provenance.exact_complete) {
    v.state = VerdictState::kRefuted;
    return v;
  }
  if (causal_bounds_apply(Semantics::kCausal)) {
    if (a != b && !observed().happened_before.holds(a, b) &&
        !observed().happened_before.holds(b, a)) {
      v.state = VerdictState::kProven;
      v.provenance.engine = "vector-clock";
      v.witness = witness_could_be_concurrent(
          trace_, a, b, witness_options(run.provenance));
      return v;
    }
    if (combined().guaranteed.holds(a, b) ||
        combined().guaranteed.holds(b, a)) {
      // Ordered in every feasible execution: never concurrent.
      v.state = VerdictState::kRefuted;
      v.provenance.engine = "combined";
      return v;
    }
  }
  if (oracle_decides(RelationKind::kCCW, a, b, Semantics::kCausal, v)) {
    return v;
  }
  v.state = VerdictState::kUnknown;
  return v;
}

BoundedVerdict AnytimeQuery::race_between(EventId a, EventId b) {
  if (!races_.has_value()) {
    ++climbs_;
    const Clock::time_point start = Clock::now();
    QueryProvenance p;
    RaceReport report;
    for (std::size_t i = 0; i < options_.ladder.size(); ++i) {
      report = detect_races_exact(trace_, rung_options(options_.ladder[i]));
      p.rungs_tried = i + 1;
      if (!report.truncated) break;
    }
    p.truncated = report.truncated;
    p.exact_complete = !p.truncated;
    p.engine = p.exact_complete ? "exact" : "exact-partial";
    p.stop_reason = report.search.stop_reason;
    p.states_visited = report.search.states_visited;
    p.memo_bytes = report.search.memo_bytes;
    p.seconds_spent = seconds_since(start);
    races_ = {std::move(report), std::move(p)};
  }
  const auto& [report, base] = *races_;
  BoundedVerdict v;
  v.provenance = base;
  // Race semantics judges concurrency against synchronization-only
  // causal orders; witnesses follow suit.
  ExactOptions wo = witness_options(base);
  wo.causal_data_edges = false;
  if (report.contains(a, b)) {
    // A truncated exact detector under-reports, so a reported race is
    // a reported race.
    v.state = VerdictState::kProven;
    v.witness = witness_could_be_concurrent(trace_, a, b, wo);
    return v;
  }
  if (base.exact_complete) {
    v.state = VerdictState::kRefuted;
    return v;
  }
  // Degrade: the guaranteed detector never misses a race (it clears a
  // pair only on sound must-orderings), so its silence refutes.
  if (!guaranteed_races_.has_value()) {
    guaranteed_races_ = detect_races_guaranteed(trace_);
  }
  if (!guaranteed_races_->contains(a, b)) {
    v.state = VerdictState::kRefuted;
    v.provenance.engine = "guaranteed-races";
    return v;
  }
  v.state = VerdictState::kUnknown;
  return v;
}

BoundedVerdict AnytimeQuery::can_deadlock() {
  if (!deadlock_.has_value()) {
    ++climbs_;
    const Clock::time_point start = Clock::now();
    QueryProvenance p;
    DeadlockReport report;
    for (std::size_t i = 0; i < options_.ladder.size(); ++i) {
      const QueryBudget& rung = options_.ladder[i];
      DeadlockOptions dopts;
      static_cast<search::SearchOptions&>(dopts) = rung_options(rung);
      // The rung keeps the deadlock search's own reduction default.
      dopts.reduction = DeadlockOptions().reduction;
      dopts.stepper.respect_dependences = options_.exact.respect_dependences;
      report = analyze_deadlocks(trace_, dopts);
      p.rungs_tried = i + 1;
      // A stuck witness is valid however far the search got; no need to
      // escalate once one is in hand, nor after an exhaustive run.
      if (report.can_deadlock || !report.truncated) break;
    }
    p.truncated = report.truncated;
    p.exact_complete = !p.truncated;
    p.engine = p.exact_complete ? "exact" : "exact-partial";
    p.stop_reason = report.search.stop_reason;
    p.states_visited = report.search.states_visited;
    p.memo_bytes = report.search.memo_bytes;
    p.seconds_spent = seconds_since(start);
    deadlock_ = {std::move(report), std::move(p)};
  }
  const auto& [report, base] = *deadlock_;
  BoundedVerdict v;
  v.provenance = base;
  if (report.can_deadlock) {
    v.state = VerdictState::kProven;
    v.witness = report.witness_prefix;
    return v;
  }
  // Refuting deadlock freedom needs the whole space.
  v.state = base.exact_complete ? VerdictState::kRefuted
                                : VerdictState::kUnknown;
  return v;
}

}  // namespace evord
