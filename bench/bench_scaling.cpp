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
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

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

// Thread sweep of the parallel causal engine (experiment E20): a
// 36-event 6-process random semaphore trace (7,627 causal classes; over
// 300 ms serial on a 4-core VM) analysed under causal semantics at
// 1/2/4/8 worker threads.  Every multi-threaded result is checked
// bit-identical to the serial one before its wall time is recorded, so
// the emitted numbers can never describe a wrong answer.  Rows land in
// BENCH_exact.json next to the binary's working directory.
std::vector<JsonRecord> run_exact_thread_sweep() {
  std::vector<JsonRecord> rows;
  Rng rng(5);
  SemTraceConfig config;
  config.num_events = 36;
  config.num_processes = 6;
  const std::pair<const char*, Trace> instances[] = {
      {"random_sem_36x6", random_semaphore_trace(config, rng)},
  };
  for (const auto& [name, trace] : instances) {
    OrderingRelations serial;
    double serial_ms = 0.0;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      ExactOptions options;
      options.num_threads = threads;
      Timer timer;
      const OrderingRelations r =
          compute_exact(trace, Semantics::kCausal, options);
      const double wall_ms =
          static_cast<double>(timer.micros()) / 1000.0;
      if (threads == 1) {
        serial = r;
        serial_ms = wall_ms;
      } else {
        EVORD_CHECK(r.matrices == serial.matrices &&
                        r.causal_classes == serial.causal_classes &&
                        r.feasible_empty == serial.feasible_empty,
                    name << ": " << threads
                         << "-thread result differs from serial");
      }
      // Requested thread counts are clamped to
      // search::max_worker_threads(); effective_threads records what
      // actually ran so speedups stay honest on small machines.
      const std::uint64_t effective =
          r.search.workers.empty()
              ? 1
              : static_cast<std::uint64_t>(r.search.workers.size());
      rows.push_back(JsonRecord{}
                         .add("name", std::string(name))
                         .add("events",
                              static_cast<std::uint64_t>(trace.num_events()))
                         .add("classes", r.causal_classes)
                         .add("threads",
                              static_cast<std::uint64_t>(threads))
                         .add("effective_threads", effective)
                         .add("wall_ms", wall_ms)
                         .add("speedup_vs_serial",
                              wall_ms > 0.0 ? serial_ms / wall_ms : 0.0)
                         .add("tasks_stolen", r.search.tasks_stolen())
                         .add("tasks_spawned", r.search.tasks_spawned()));
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::vector<JsonRecord> rows = run_exact_thread_sweep();
  if (!write_json_records("BENCH_exact.json", rows)) {
    return 1;
  }
  return 0;
}
