// Experiment E12: the feasible-execution engines against closed forms.
//
// * schedule counting on independent processes follows the multinomial
//   (n+m choose n) — verified each iteration;
// * the state-merged engine visits (len+1)^procs states where the
//   enumeration engine walks exponentially many schedules — the counters
//   expose the gap that makes interleaving queries tractable per state
//   but exponential overall.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "feasible/enumerate.hpp"
#include "feasible/schedule_space.hpp"
#include "reductions/figure1.hpp"
#include "reductions/reduction.hpp"
#include "search/fingerprint_set.hpp"
#include "sync/scheduler.hpp"
#include "trace/builder.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace evord;

Trace independent(std::size_t per_proc, std::size_t procs) {
  TraceBuilder b;
  std::vector<ProcId> ps{b.root()};
  while (ps.size() < procs) ps.push_back(b.add_process());
  for (std::size_t i = 0; i < per_proc; ++i) {
    for (ProcId p : ps) b.compute(p, "");
  }
  return b.build();
}

std::uint64_t multinomial_schedules(std::size_t per_proc,
                                    std::size_t procs) {
  // (procs*per_proc)! / (per_proc!)^procs, computed incrementally.
  std::uint64_t result = 1;
  std::size_t placed = 0;
  for (std::size_t p = 0; p < procs; ++p) {
    // choose(placed + per_proc, per_proc)
    for (std::size_t i = 1; i <= per_proc; ++i) {
      result = result * (placed + i) / i;
    }
    placed += per_proc;
  }
  return result;
}

void BM_Enumerate_IndependentProcs(benchmark::State& state) {
  const auto per_proc = static_cast<std::size_t>(state.range(0));
  const auto procs = static_cast<std::size_t>(state.range(1));
  const Trace t = independent(per_proc, procs);
  const std::uint64_t expected = multinomial_schedules(per_proc, procs);
  std::uint64_t count = 0;
  for (auto _ : state) {
    count = count_schedules(t);
    EVORD_CHECK(count == expected, "closed form violated");
    benchmark::DoNotOptimize(count);
  }
  state.counters["schedules"] = static_cast<double>(count);
  state.counters["events"] = static_cast<double>(t.num_events());
}
BENCHMARK(BM_Enumerate_IndependentProcs)
    ->Args({3, 2})
    ->Args({5, 2})
    ->Args({7, 2})
    ->Args({3, 3})
    ->Args({4, 3})
    ->Unit(benchmark::kMicrosecond);

void BM_StateSpace_IndependentProcs(benchmark::State& state) {
  const auto per_proc = static_cast<std::size_t>(state.range(0));
  const auto procs = static_cast<std::size_t>(state.range(1));
  const Trace t = independent(per_proc, procs);
  std::size_t states = 0;
  for (auto _ : state) {
    const CanPrecedeResult r = compute_can_precede(t);
    states = r.states_visited;
    benchmark::DoNotOptimize(r);
  }
  // (per_proc+1)^procs - 1 states (the complete state is not memoized).
  std::size_t expected = 1;
  for (std::size_t p = 0; p < procs; ++p) expected *= per_proc + 1;
  EVORD_CHECK(states == expected - 1, "state count mismatch");
  state.counters["states"] = static_cast<double>(states);
  state.counters["schedules"] =
      static_cast<double>(multinomial_schedules(per_proc, procs));
}
BENCHMARK(BM_StateSpace_IndependentProcs)
    ->Args({3, 2})
    ->Args({7, 2})
    ->Args({4, 3})
    ->Args({9, 3})
    ->Args({6, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_Enumerate_SemTraceSerial(benchmark::State& state) {
  Rng rng(11);
  const Trace t = evord::bench::random_sem_trace(
      static_cast<std::size_t>(state.range(0)), 3, 2, rng);
  std::uint64_t count = 0;
  for (auto _ : state) {
    count = count_schedules(t);
    benchmark::DoNotOptimize(count);
  }
  state.counters["schedules"] = static_cast<double>(count);
}
BENCHMARK(BM_Enumerate_SemTraceSerial)
    ->DenseRange(8, 14, 2)
    ->Unit(benchmark::kMillisecond);

// Program-space exploration: all schedules of a PROGRAM (branches
// included).  Counters report outcome mix across the whole space.
void BM_ExploreProgram_Figure1(benchmark::State& state) {
  const Program prog = figure1_program();
  std::uint64_t completed = 0;
  std::uint64_t else_branch = 0;
  for (auto _ : state) {
    completed = else_branch = 0;
    explore_program_executions(prog, {}, [&](const RunResult& r) {
      if (r.status == RunStatus::kCompleted) {
        ++completed;
        if (r.trace.events_of_kind(EventKind::kPost).size() == 1) {
          ++else_branch;
        }
      }
      return true;
    });
    benchmark::DoNotOptimize(completed);
  }
  EVORD_CHECK(else_branch > 0 && else_branch < completed,
              "both branches of Figure 1 must occur");
  state.counters["executions"] = static_cast<double>(completed);
  state.counters["else_branch"] = static_cast<double>(else_branch);
  state.SetLabel("schedules that take the Wait instead of the Post");
}
BENCHMARK(BM_ExploreProgram_Figure1)->Unit(benchmark::kMillisecond);

void BM_ExploreProgram_Philosophers(benchmark::State& state) {
  const auto seats = static_cast<std::size_t>(state.range(0));
  const Program prog = dining_philosophers(seats, 1);
  std::uint64_t completed = 0;
  std::uint64_t deadlocked = 0;
  for (auto _ : state) {
    const ProgramExploration stats = explore_program_executions(
        prog, {}, [](const RunResult&) { return true; });
    completed = stats.completed;
    deadlocked = stats.deadlocked;
    benchmark::DoNotOptimize(stats);
  }
  EVORD_CHECK(deadlocked == 0, "asymmetric philosophers never deadlock");
  state.counters["executions"] = static_cast<double>(completed);
}
BENCHMARK(BM_ExploreProgram_Philosophers)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Memo-key compression, state-merged engine (rows appended to
// BENCH_search.json): the Theorem-1 UNSAT reduction trace swept once with
// the legacy full-key-vector memo and once through the packed state
// registry (exact single-word keys plus a 1-bit completability value).
// Both sweeps expand every child of every reachable state, so the
// distinct-state sets are identical; the engine sweep additionally builds
// the can-precede matrix, which makes its states/sec figure conservative.
// Bytes/state must drop at least 4x against the legacy walker and at
// least 2x against the pre-packed 9-byte-fingerprint nominal cost.
std::vector<evord::bench::JsonRecord> run_space_memory_sweep() {
  using evord::bench::JsonRecord;
  const ReductionExecution e = execute_reduction(
      reduce_3sat_semaphores(evord::bench::tiny_unsat()));

  Timer legacy_timer;
  const evord::bench::LegacyWalkStats legacy =
      evord::bench::legacy_keyvec_completable(e.trace);
  const double legacy_ms =
      static_cast<double>(legacy_timer.micros()) / 1000.0;

  Timer engine_timer;
  const CanPrecedeResult result = compute_can_precede(e.trace);
  const double engine_ms =
      static_cast<double>(engine_timer.micros()) / 1000.0;

  EVORD_CHECK(result.feasible_nonempty == legacy.result,
              "legacy and packed feasibility verdicts differ");
  EVORD_CHECK(result.states_visited == legacy.states,
              "legacy and packed sweeps memoized different state "
              "sets: " << legacy.states << " vs " << result.states_visited);

  const double legacy_bytes = static_cast<double>(legacy.table_bytes) /
                              static_cast<double>(legacy.states);
  const double engine_bytes =
      static_cast<double>(result.search.memo_bytes) /
      static_cast<double>(result.states_visited);
  EVORD_CHECK(legacy_bytes >= 4.0 * engine_bytes,
              "memo-key compression regressed below 4x: "
                  << legacy_bytes << " -> " << engine_bytes
                  << " bytes/state");
  EVORD_CHECK(2.0 * engine_bytes <=
                  static_cast<double>(
                      search::FingerprintBoolMap::kBytesPerEntry),
              "packed memo regressed below 2x vs the 9-byte fingerprint "
              "baseline: " << engine_bytes << " bytes/state");

  const auto row = [&](const char* variant, std::uint64_t states,
                       std::uint64_t bytes, double wall_ms) {
    return JsonRecord{}
        .add("engine", std::string("schedule_space"))
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
          row("packed", result.states_visited, result.search.memo_bytes,
              engine_ms)};
}

// Serial plain enumeration (one row appended to BENCH_search.json): a
// 16-event 3-process random semaphore trace, 763,476 schedules, over
// 100 ms on a 4-core VM.  The schedule and state counts are
// deterministic, so the perf_counts gate checks them; wall_ms times the
// enumerator.
evord::bench::JsonRecord run_enumerate_serial() {
  Rng rng(11);
  const Trace t = evord::bench::random_sem_trace(16, 3, 2, rng);
  Timer timer;
  const EnumerateStats stats = enumerate_schedules(
      t, {}, [](const std::vector<EventId>&) { return true; });
  const double wall_ms = static_cast<double>(timer.micros()) / 1000.0;
  return evord::bench::JsonRecord{}
      .add("engine", std::string("enumerate"))
      .add("variant", std::string("serial"))
      .add("workload", std::string("random_sem_16"))
      .add("schedules", stats.schedules)
      .add("states", stats.search.states_visited)
      .add("wall_ms", wall_ms)
      .add("states_per_sec",
           static_cast<double>(stats.search.states_visited) /
               (wall_ms / 1000.0));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::vector<evord::bench::JsonRecord> rows = run_space_memory_sweep();
  rows.push_back(run_enumerate_serial());
  if (!evord::bench::append_json_records("BENCH_search.json", rows)) {
    return 1;
  }
  return 0;
}
