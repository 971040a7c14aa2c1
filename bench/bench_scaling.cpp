// Experiment E6: the headline intractability curve.
//
// The exact ordering decision on reduction instances is run against a
// graded family of unsatisfiable formulas (size k = k variables, 2k
// clauses; every instance is UNSAT so the co-NP side must exhaust the
// space).  Reported per size:
//   * wall time of the exact interleaving analysis,
//   * states visited (grows exponentially with k),
//   * events in the reduction trace (grows linearly with k),
//   * sat_us: time for the CDCL oracle to answer the SAME query
//     (stays microseconds — the polynomial/exponential split IS the
//     paper's result).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "ordering/exact.hpp"
#include "reductions/oracle.hpp"
#include "reductions/reduction.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace {

using namespace evord;
using namespace evord::bench;

void BM_ExactDecision_UnsatFamily(benchmark::State& state) {
  const auto m = static_cast<std::int32_t>(state.range(0));
  const CnfFormula formula = scaling_unsat(m);
  const ReductionProgram reduction =
      reduce_3sat(formula, SyncStyle::kSemaphore);
  const ReductionExecution e = execute_reduction(reduction);

  std::size_t states = 0;
  for (auto _ : state) {
    ExactOptions options;
    options.max_states = 20'000'000;
    const OrderingRelations r =
        compute_exact(e.trace, Semantics::kInterleaving, options);
    EVORD_CHECK(!r.truncated, "state budget exceeded at size " << m);
    EVORD_CHECK(r.holds(RelationKind::kMHB, e.a, e.b),
                "UNSAT family must satisfy a MHB b");
    states = r.states_visited;
    benchmark::DoNotOptimize(r);
  }

  Timer sat_timer;
  const SatOrderingDecision fast = decide_ordering_via_sat(formula);
  EVORD_CHECK(fast.mhb_a_b, "oracle disagrees");
  state.counters["states"] = static_cast<double>(states);
  state.counters["events"] = static_cast<double>(e.trace.num_events());
  state.counters["sat_us"] = static_cast<double>(sat_timer.micros());
}
BENCHMARK(BM_ExactDecision_UnsatFamily)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
// m = 4 visits ~12M states (~1 min): run exactly once.
BENCHMARK(BM_ExactDecision_UnsatFamily)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ExactDecision_SatFamily(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  const CnfFormula formula = scaling_sat(k);
  const ReductionProgram reduction =
      reduce_3sat(formula, SyncStyle::kSemaphore);
  const ReductionExecution e = execute_reduction(reduction);
  std::size_t states = 0;
  for (auto _ : state) {
    ExactOptions options;
    options.max_states = 20'000'000;
    const OrderingRelations r =
        compute_exact(e.trace, Semantics::kInterleaving, options);
    EVORD_CHECK(!r.truncated, "state budget exceeded at size " << k);
    EVORD_CHECK(!r.holds(RelationKind::kMHB, e.a, e.b),
                "SAT family must refute a MHB b");
    states = r.states_visited;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["events"] = static_cast<double>(e.trace.num_events());
}
BENCHMARK(BM_ExactDecision_SatFamily)
    ->DenseRange(1, 3, 1)
    ->Unit(benchmark::kMillisecond);

// The oracle alone across sizes the exact engine cannot touch: the
// polynomial path of the same decision problem.
void BM_SatOracle_LargeInstances(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  const CnfFormula formula = scaling_unsat_vars(k);
  for (auto _ : state) {
    const SatOrderingDecision d = decide_ordering_via_sat(formula);
    EVORD_CHECK(d.mhb_a_b, "oracle verdict wrong");
    benchmark::DoNotOptimize(d);
  }
  state.counters["clauses"] = 2.0 * k;
}
BENCHMARK(BM_SatOracle_LargeInstances)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
