// Deadlock and coexistence analyses — the extensions the paper gestures
// at ("Although these processes can deadlock"; concurrent-with hardness).
//
//   * deadlockability of the two reduction styles: the semaphore
//     construction never wedges, the event-style one always can;
//   * deadlock probability over random Post/Wait/Clear traces (counters
//     report the fraction of traces with a wedgeable schedule);
//   * the coexistence decision on reduction instances: coexist(a, b) iff
//     the formula is satisfiable — could-have-been-concurrent hardness
//     exercised at state-space (Engine A) cost.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "feasible/deadlock.hpp"
#include "feasible/schedule_space.hpp"
#include "reductions/reduction.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace evord;
using namespace evord::bench;

void BM_Deadlock_SemReduction(benchmark::State& state) {
  const ReductionExecution e =
      execute_reduction(reduce_3sat_semaphores(tiny_sat()));
  bool can = true;
  for (auto _ : state) {
    const DeadlockReport r = analyze_deadlocks(e.trace);
    EVORD_CHECK(!r.truncated, "budget exceeded");
    can = r.can_deadlock;
    benchmark::DoNotOptimize(r);
  }
  EVORD_CHECK(!can, "semaphore construction must be deadlock-free");
  state.SetLabel("deadlock-free, as constructed");
}
BENCHMARK(BM_Deadlock_SemReduction)->Unit(benchmark::kMillisecond);

void BM_Deadlock_EventReduction(benchmark::State& state) {
  const ReductionExecution e =
      execute_reduction(reduce_3sat_events(tiny_sat()));
  bool can = false;
  for (auto _ : state) {
    const DeadlockReport r = analyze_deadlocks(e.trace);
    EVORD_CHECK(!r.truncated, "budget exceeded");
    can = r.can_deadlock;
    benchmark::DoNotOptimize(r);
  }
  EVORD_CHECK(can, "the Clear gadget must be wedgeable");
  state.SetLabel("'Although these processes can deadlock...' -- confirmed");
}
BENCHMARK(BM_Deadlock_EventReduction)->Unit(benchmark::kMillisecond);

void BM_Deadlock_RandomEventTraces(benchmark::State& state) {
  const auto num_events = static_cast<std::size_t>(state.range(0));
  Rng rng(77);
  std::vector<Trace> traces;
  for (int i = 0; i < 10; ++i) {
    EventTraceConfig config;
    config.num_events = num_events;
    traces.push_back(random_event_trace(config, rng));
  }
  std::size_t wedgeable = 0;
  for (auto _ : state) {
    wedgeable = 0;
    for (const Trace& t : traces) {
      const DeadlockReport r = analyze_deadlocks(t);
      wedgeable += r.can_deadlock ? 1 : 0;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["wedgeable_fraction"] =
      static_cast<double>(wedgeable) / static_cast<double>(traces.size());
}
BENCHMARK(BM_Deadlock_RandomEventTraces)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_Coexist_ReductionDecidesSat(benchmark::State& state) {
  const bool satisfiable = state.range(0) != 0;
  const ReductionExecution e = execute_reduction(
      reduce_3sat_semaphores(satisfiable ? tiny_sat() : tiny_unsat()));
  bool coexist = false;
  for (auto _ : state) {
    ScheduleSpaceOptions options;
    options.build_coexist = true;
    options.max_states = 20'000'000;
    const CanPrecedeResult r = compute_can_precede(e.trace, options);
    EVORD_CHECK(!r.truncated, "budget exceeded");
    coexist = r.can_coexist[e.a].test(e.b);
    benchmark::DoNotOptimize(r);
  }
  EVORD_CHECK(coexist == satisfiable,
              "coexist(a,b) must decide satisfiability");
  state.counters["coexist_ab"] = coexist ? 1 : 0;
  state.SetLabel(satisfiable ? "SAT => a,b could run simultaneously"
                             : "UNSAT => never simultaneous");
}
BENCHMARK(BM_Coexist_ReductionDecidesSat)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Memo-key compression, deadlock engine (rows appended to
// BENCH_search.json): the Theorem-1 UNSAT reduction trace swept once with
// the legacy full-key-vector visited set and once with the packed state
// registry (reduction off, so both walks expand the identical full state
// space and the registry stores exact single-word packed keys).  Verdicts
// and distinct-state counts must agree; bytes/state must drop at least 4x
// against the legacy walker and at least 2x against the pre-packed
// 8-byte-fingerprint nominal cost.
std::vector<JsonRecord> run_deadlock_memory_sweep() {
  const ReductionExecution e =
      execute_reduction(reduce_3sat_semaphores(tiny_unsat()));

  Timer legacy_timer;
  const LegacyWalkStats legacy = legacy_keyvec_deadlock(e.trace);
  const double legacy_ms =
      static_cast<double>(legacy_timer.micros()) / 1000.0;

  DeadlockOptions packed_options;
  packed_options.reduction = search::ReductionMode::kOff;
  Timer engine_timer;
  const DeadlockReport report = analyze_deadlocks(e.trace, packed_options);
  const double engine_ms =
      static_cast<double>(engine_timer.micros()) / 1000.0;

  EVORD_CHECK(report.can_deadlock == legacy.result,
              "legacy and packed deadlock verdicts differ");
  EVORD_CHECK(report.states_visited == legacy.states,
              "legacy and packed deadlock sweeps visited different "
              "state sets: " << legacy.states << " vs "
                             << report.states_visited);

  const double legacy_bytes = static_cast<double>(legacy.table_bytes) /
                              static_cast<double>(legacy.states);
  const double engine_bytes =
      static_cast<double>(report.search.memo_bytes) /
      static_cast<double>(report.states_visited);
  EVORD_CHECK(legacy_bytes >= 4.0 * engine_bytes,
              "memo-key compression regressed below 4x: "
                  << legacy_bytes << " -> " << engine_bytes
                  << " bytes/state");
  EVORD_CHECK(2.0 * engine_bytes <=
                  static_cast<double>(kVisitedBytesPerEntry),
              "packed visited set regressed below 2x vs the 8-byte "
              "fingerprint baseline: " << engine_bytes << " bytes/state");

  const auto row = [&](const char* variant, std::uint64_t states,
                       std::uint64_t bytes, double wall_ms) {
    return JsonRecord{}
        .add("engine", std::string("deadlock"))
        .add("variant", std::string(variant))
        .add("workload", std::string("theorem1_unsat"))
        .add("states", states)
        .add("wall_ms", wall_ms)
        .add("states_per_sec",
             static_cast<double>(states) / (wall_ms / 1000.0))
        .add("bytes_per_state",
             static_cast<double>(bytes) / static_cast<double>(states));
  };
  return {row("legacy_keyvec", legacy.states, legacy.table_bytes, legacy_ms),
          row("packed", report.states_visited, report.search.memo_bytes,
              engine_ms)};
}

// Packed-layer wall-time sweep (rows appended to BENCH_search.json): a
// wide fork/join large enough (~2.9M distinct states) that memo-table
// cache behaviour dominates the walk.  The legacy full-key-vector walker
// heap-allocates and hashes a vector per state; the packed registry
// probes a flat arena of 4-byte quotiented keys.  The packed walk must
// agree with the legacy one exactly and finish at least 1.3x faster.
std::vector<JsonRecord> run_deadlock_walltime_sweep() {
  const Trace t = wide_fork_trace(9, 4);

  Timer legacy_timer;
  const LegacyWalkStats legacy = legacy_keyvec_deadlock(t);
  const double legacy_ms =
      static_cast<double>(legacy_timer.micros()) / 1000.0;

  DeadlockOptions packed_options;
  packed_options.reduction = search::ReductionMode::kOff;
  packed_options.max_states = 8'000'000;
  Timer engine_timer;
  const DeadlockReport report = analyze_deadlocks(t, packed_options);
  const double engine_ms =
      static_cast<double>(engine_timer.micros()) / 1000.0;

  EVORD_CHECK(report.can_deadlock == legacy.result &&
                  report.states_visited == legacy.states,
              "legacy and packed wide-fork sweeps disagree");
  EVORD_CHECK(legacy_ms >= 1.3 * engine_ms,
              "packed state layer lost its 1.3x wall-time edge on the "
              "wide-fork sweep: " << legacy_ms << " ms vs " << engine_ms
                                  << " ms");

  const auto row = [&](const char* variant, std::uint64_t states,
                       std::uint64_t bytes, double wall_ms) {
    return JsonRecord{}
        .add("engine", std::string("deadlock"))
        .add("variant", std::string(variant))
        .add("workload", std::string("wide_fork_9x4"))
        .add("states", states)
        .add("wall_ms", wall_ms)
        .add("states_per_sec",
             static_cast<double>(states) / (wall_ms / 1000.0))
        .add("bytes_per_state",
             static_cast<double>(bytes) / static_cast<double>(states));
  };
  return {row("legacy_keyvec", legacy.states, legacy.table_bytes, legacy_ms),
          row("packed", report.states_visited, report.search.memo_bytes,
              engine_ms)};
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::vector<JsonRecord> rows = run_deadlock_memory_sweep();
  for (JsonRecord& row : run_deadlock_walltime_sweep()) {
    rows.push_back(std::move(row));
  }
  if (!append_json_records("BENCH_search.json", rows)) {
    return 1;
  }
  return 0;
}
