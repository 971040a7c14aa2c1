// Robustness experiment: the cost of the resource-governance machinery.
//
// Three question families, one BENCH_robust.json:
//
//   1. Fault-hook overhead.  The search core calls fault:: hooks on
//      every expanded state, store insertion and steal attempt.  Rows
//      compare the Theorem-1 causal sweep with hooks disarmed (the
//      production default) against hooks armed with a threshold that
//      never fires (the worst hot-path cost short of actually
//      injecting: every expanded state and store insertion pays an
//      atomic increment).  The acceptance bar is on the production
//      configuration: the DISARMED hook — one relaxed atomic load —
//      must cost <= 2% of the sweep.  Wall-clock A/B at that scale is
//      pure noise on a 1-CPU runner, so the bound is computed
//      deterministically: a microbenchmark times the disarmed hook
//      per-call, the armed run counts how often the sweep calls it, and
//      their product is compared against the sweep's wall time.  The
//      armed-idle wall time lands in the row as informational data, and
//      both sweeps' matrices are compared so a row can never describe a
//      wrong answer.
//
//   2. Memory-budget precision.  A budgeted sweep must stop with
//      StopReason::kMemory without overshooting the byte budget by more
//      than one state's charge; the row records the ratio.
//
//   3. Anytime-ladder overhead.  AnytimeQuery answers through an
//      escalating budget ladder; rows compare a direct exhaustive
//      compute_exact against the ladder climb (which ends in the same
//      exhaustive run) and record a degraded truncated-ladder query's
//      provenance for reference.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ordering/exact.hpp"
#include "ordering/relations.hpp"
#include "reductions/reduction.hpp"
#include "resilience/anytime.hpp"
#include "sat/formula.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace {

using namespace evord;
using namespace evord::bench;

Trace theorem1_trace(const CnfFormula& formula) {
  return execute_reduction(reduce_3sat(formula, SyncStyle::kSemaphore))
      .trace;
}

bool same_matrices(const OrderingRelations& a, const OrderingRelations& b) {
  for (std::size_t k = 0; k < kNumRelationKinds; ++k) {
    if (!(a.matrices[k] == b.matrices[k])) return false;
  }
  return true;
}

// Best-of-N wall time for one configuration, interleaving is handled by
// the caller so slow drift hits both arms equally.
struct TimedSweep {
  OrderingRelations relations;
  double best_ms = 1e100;
};

void run_once(const Trace& trace, TimedSweep& sweep) {
  Timer timer;
  OrderingRelations rel = compute_exact(trace, Semantics::kCausal, {});
  const double ms = static_cast<double>(timer.micros()) / 1000.0;
  sweep.best_ms = std::min(sweep.best_ms, ms);
  sweep.relations = std::move(rel);
}

// ---------------------------------------------------------------------
// 1. Hook overhead: disarmed vs armed-but-never-firing.

/// Nanoseconds per disarmed on_state_expanded() call (one relaxed
/// atomic load; the cost every production search pays per state).
double disarmed_hook_ns() {
  constexpr std::uint64_t kCalls = 8'000'000;
  fault::disarm();
  bool sink = false;
  Timer timer;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    sink |= fault::on_state_expanded();
  }
  const double ns = static_cast<double>(timer.micros()) * 1000.0;
  benchmark::DoNotOptimize(sink);
  return ns / static_cast<double>(kCalls);
}

JsonRecord run_hook_overhead(const std::string& workload,
                             const Trace& trace) {
  constexpr int kReps = 9;
  TimedSweep disarmed;
  TimedSweep armed;
  fault::FaultPlan idle_plan;
  idle_plan.kind = fault::FaultKind::kDeadlineAtState;
  idle_plan.threshold = std::uint64_t{1} << 62;  // never reached
  // Interleave the arms so clock-speed drift cannot bias one side.
  for (int rep = 0; rep < kReps; ++rep) {
    run_once(trace, disarmed);
    {
      fault::ScopedFaultPlan scope(idle_plan);
      run_once(trace, armed);
    }
  }
  EVORD_CHECK(!armed.relations.truncated,
              workload << ": idle fault plan truncated the sweep");
  EVORD_CHECK(same_matrices(disarmed.relations, armed.relations),
              workload << ": armed-but-idle hooks changed the matrices");
  // The armed run's counters tell us exactly how many hook calls the
  // sweep makes (counts are the same disarmed — the sites don't move).
  const std::uint64_t hook_calls =
      fault::states_observed() + fault::inserts_observed();
  const double per_call_ns = disarmed_hook_ns();
  const double disarmed_overhead_pct =
      disarmed.best_ms > 0.0
          ? per_call_ns * static_cast<double>(hook_calls) /
                (disarmed.best_ms * 1e6) * 100.0
          : 0.0;
  EVORD_CHECK(disarmed_overhead_pct <= 2.0,
              workload << ": disarmed fault-hook overhead "
                       << disarmed_overhead_pct << "% exceeds the 2% bar ("
                       << hook_calls << " calls x " << per_call_ns
                       << "ns against " << disarmed.best_ms << "ms)");
  const double armed_overhead_pct =
      disarmed.best_ms > 0.0
          ? (armed.best_ms - disarmed.best_ms) / disarmed.best_ms * 100.0
          : 0.0;
  return JsonRecord{}
      .add("engine", std::string("exact_causal"))
      .add("variant", std::string("fault_hook_overhead"))
      .add("workload", workload)
      .add("events", static_cast<std::uint64_t>(trace.num_events()))
      .add("reps", static_cast<std::uint64_t>(kReps))
      .add("wall_ms_disarmed", disarmed.best_ms)
      .add("wall_ms_armed_idle", armed.best_ms)
      .add("hook_calls", hook_calls)
      .add("disarmed_hook_ns_per_call", per_call_ns)
      .add("disarmed_overhead_pct", disarmed_overhead_pct)
      .add("armed_idle_overhead_pct", armed_overhead_pct)
      .add("schedules_seen", disarmed.relations.schedules_seen);
}

// ---------------------------------------------------------------------
// 2. Memory-budget precision.

JsonRecord run_memory_budget(const std::string& workload, const Trace& trace,
                             std::uint64_t budget_bytes) {
  ExactOptions options;
  options.max_memory_bytes = budget_bytes;
  Timer timer;
  const OrderingRelations rel =
      compute_exact(trace, Semantics::kCausal, options);
  const double wall_ms = static_cast<double>(timer.micros()) / 1000.0;
  EVORD_CHECK(rel.truncated, workload << ": budget " << budget_bytes
                                      << "B did not truncate the sweep");
  EVORD_CHECK(rel.search.stop_reason == search::StopReason::kMemory,
              workload << ": stopped with "
                       << search::to_string(rel.search.stop_reason)
                       << " instead of kMemory");
  const double ratio = static_cast<double>(rel.search.memo_bytes) /
                       static_cast<double>(budget_bytes);
  return JsonRecord{}
      .add("engine", std::string("exact_causal"))
      .add("variant", std::string("memory_budget"))
      .add("workload", workload)
      .add("budget_bytes", budget_bytes)
      .add("memo_bytes_at_stop", rel.search.memo_bytes)
      .add("bytes_over_budget_ratio", ratio)
      .add("stop_reason",
           std::string(search::to_string(rel.search.stop_reason)))
      .add("wall_ms", wall_ms);
}

// ---------------------------------------------------------------------
// 3. Anytime-ladder overhead and degradation provenance.

std::vector<JsonRecord> run_ladder_rows(const std::string& workload,
                                        const Trace& trace) {
  std::vector<JsonRecord> rows;
  const EventId a = 0;
  const EventId b = static_cast<EventId>(trace.num_events() - 1);

  Timer direct_timer;
  const OrderingRelations direct =
      compute_exact(trace, Semantics::kCausal, {});
  const double direct_ms =
      static_cast<double>(direct_timer.micros()) / 1000.0;

  Timer ladder_timer;
  AnytimeQuery query(trace);
  const BoundedVerdict verdict = query.must_have_happened_before(a, b);
  const double ladder_ms =
      static_cast<double>(ladder_timer.micros()) / 1000.0;
  EVORD_CHECK(!verdict.unknown(),
              workload << ": exhaustible trace left an unknown verdict");
  EVORD_CHECK(verdict.proven() ==
                  direct[RelationKind::kMHB].holds(a, b),
              workload << ": ladder verdict disagrees with compute_exact");
  rows.push_back(
      JsonRecord{}
          .add("engine", std::string("anytime"))
          .add("variant", std::string("ladder_overhead"))
          .add("workload", workload)
          .add("events", static_cast<std::uint64_t>(trace.num_events()))
          .add("wall_ms_direct", direct_ms)
          .add("wall_ms_ladder", ladder_ms)
          .add("ladder_over_direct",
               direct_ms > 0.0 ? ladder_ms / direct_ms : 0.0)
          .add("rungs_tried",
               static_cast<std::uint64_t>(verdict.provenance.rungs_tried))
          .add("provenance_engine", verdict.provenance.engine)
          .add("verdict", std::string(to_string(verdict.state))));

  // Degraded path: a ladder too small to exhaust must still answer from
  // sound bounds, and its provenance must say so.
  AnytimeOptions tiny;
  tiny.ladder = {QueryBudget{0, 2, 0, 0.0}};
  Timer degraded_timer;
  AnytimeQuery degraded(trace, tiny);
  const BoundedVerdict bounded = degraded.must_have_happened_before(a, b);
  const double degraded_ms =
      static_cast<double>(degraded_timer.micros()) / 1000.0;
  EVORD_CHECK(bounded.provenance.truncated,
              workload << ": 2-schedule ladder was not truncated");
  if (bounded.proven()) {
    EVORD_CHECK(direct[RelationKind::kMHB].holds(a, b),
                workload << ": degraded proof contradicts compute_exact");
  }
  if (bounded.refuted()) {
    EVORD_CHECK(!direct[RelationKind::kMHB].holds(a, b),
                workload << ": degraded refutation contradicts exact");
  }
  rows.push_back(
      JsonRecord{}
          .add("engine", std::string("anytime"))
          .add("variant", std::string("degraded_verdict"))
          .add("workload", workload)
          .add("wall_ms", degraded_ms)
          .add("provenance_engine", bounded.provenance.engine)
          .add("stop_reason", std::string(search::to_string(
                                  bounded.provenance.stop_reason)))
          .add("verdict", std::string(to_string(bounded.state))));
  return rows;
}

std::vector<JsonRecord> run_robust_sweep() {
  const Trace sat = theorem1_trace(tiny_sat());
  const Trace unsat = theorem1_trace(tiny_unsat());
  std::vector<JsonRecord> rows;
  rows.push_back(run_hook_overhead("theorem1_sat", sat));
  rows.push_back(run_hook_overhead("theorem1_unsat", unsat));
  rows.push_back(run_memory_budget("theorem1_unsat", unsat, 4096));
  for (auto& row : run_ladder_rows("theorem1_sat", sat)) {
    rows.push_back(std::move(row));
  }
  return rows;
}

// Timed pair for the interactive benchmark runner.
void BM_ExactCausal_HooksDisarmed(benchmark::State& state) {
  const Trace t = theorem1_trace(tiny_sat());
  for (auto _ : state) {
    const OrderingRelations rel = compute_exact(t, Semantics::kCausal, {});
    benchmark::DoNotOptimize(rel);
  }
}

void BM_ExactCausal_HooksArmedIdle(benchmark::State& state) {
  const Trace t = theorem1_trace(tiny_sat());
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kDeadlineAtState;
  plan.threshold = std::uint64_t{1} << 62;
  fault::ScopedFaultPlan scope(plan);
  for (auto _ : state) {
    const OrderingRelations rel = compute_exact(t, Semantics::kCausal, {});
    benchmark::DoNotOptimize(rel);
  }
}

BENCHMARK(BM_ExactCausal_HooksDisarmed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExactCausal_HooksArmedIdle)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!append_json_records("BENCH_robust.json", run_robust_sweep())) {
    return 1;
  }
  return 0;
}
