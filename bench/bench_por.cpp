// Partial-order reduction experiment: the same class enumeration with
// reduction off vs source+wakeup (search/independence.hpp), on the
// Theorem-1 reduction traces and the wide fork/join family where
// pairwise-independent children make the unreduced schedule tree
// maximally interleaved.
//
// Every mode pair is checked for identical causal-class sets before its
// wall times land in a row, so BENCH_por.json can never describe a wrong
// answer.  Each row carries states/terminals/wall for both modes,
// `reduction_factor_source` = states_off / states_source, and the
// optimality row `schedules_per_class` = terminals_source / classes
// (1.0 = exactly one explored schedule per causal class).  Hard bars,
// enforced on every run: schedules_per_class <= 1.1 everywhere and the
// source factor >= 5x on the wide forks.
#include <benchmark/benchmark.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/reachability.hpp"
#include "ordering/causal.hpp"
#include "ordering/class_enumerate.hpp"
#include "reductions/reduction.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace evord;
using namespace evord::bench;

// Canonical identity of a causal class: the closure rows of C(sigma).
std::string class_fingerprint(const Trace& t,
                              const std::vector<EventId>& schedule) {
  const TransitiveClosure tc = causal_closure(t, schedule, {});
  std::string fp;
  for (EventId a = 0; a < t.num_events(); ++a) {
    fp += tc.descendants(a).to_string();
    fp += '|';
  }
  return fp;
}

struct ModeResult {
  ClassEnumStats stats;
  std::set<std::string> classes;
  double wall_ms = 0.0;
};

ModeResult run_mode(const Trace& trace, search::ReductionMode mode) {
  ModeResult r;
  ClassEnumOptions options;
  options.reduction = mode;
  Timer timer;
  r.stats = enumerate_causal_classes(
      trace, options,
      [&](std::size_t, const std::vector<EventId>& s,
          const std::vector<DynamicBitset>&) {
        r.classes.insert(class_fingerprint(trace, s));
        return true;
      });
  r.wall_ms = static_cast<double>(timer.micros()) / 1000.0;
  return r;
}

JsonRecord run_family(const std::string& workload, const Trace& trace) {
  const ModeResult off = run_mode(trace, search::ReductionMode::kOff);
  const ModeResult src = run_mode(trace, search::ReductionMode::kSourceWakeup);
  EVORD_CHECK(src.classes == off.classes,
              workload << ": source+wakeup changed the causal-class set");
  const double factor =
      src.stats.search.states_visited > 0
          ? static_cast<double>(off.stats.search.states_visited) /
                static_cast<double>(src.stats.search.states_visited)
          : 0.0;
  // The optimality row: explored schedules per causal class under
  // source+wakeup.  1.0 means exactly one representative per class.
  const double spc =
      off.classes.empty()
          ? 0.0
          : static_cast<double>(src.stats.schedules_visited) /
                static_cast<double>(off.classes.size());
  return JsonRecord{}
      .add("engine", std::string("class_enumerate"))
      .add("variant", std::string("por"))
      .add("workload", workload)
      .add("events", static_cast<std::uint64_t>(trace.num_events()))
      .add("classes", static_cast<std::uint64_t>(off.classes.size()))
      .add("states_off", off.stats.search.states_visited)
      .add("states_source", src.stats.search.states_visited)
      .add("terminals_off", off.stats.schedules_visited)
      .add("terminals_source", src.stats.schedules_visited)
      .add("wall_ms_off", off.wall_ms)
      .add("wall_ms_source", src.wall_ms)
      .add("sleep_pruned", src.stats.search.sleep_pruned)
      .add("source_skipped", src.stats.search.source_skipped)
      .add("dyn_excused", src.stats.search.dyn_excused)
      .add("schedules_per_class", spc)
      .add("reduction_factor_source", factor);
}

Trace theorem1_trace(const CnfFormula& formula) {
  return execute_reduction(reduce_3sat(formula, SyncStyle::kSemaphore))
      .trace;
}

double field_of(const JsonRecord& row, const std::string& want) {
  double out = 0.0;
  for (const auto& [key, value] : row.fields) {
    if (key == want) out = std::stod(value);
  }
  return out;
}

std::vector<JsonRecord> run_por_sweep() {
  std::vector<JsonRecord> rows;
  for (const auto& [name, formula] :
       {std::pair<std::string, CnfFormula>{"theorem1_sat", tiny_sat()},
        {"theorem1_unsat", tiny_unsat()}}) {
    rows.push_back(run_family(name, theorem1_trace(formula)));
    const JsonRecord& row = rows.back();
    // The optimality bar: source+wakeup explores at most 1.1 schedules
    // per causal class.
    const double spc = field_of(row, "schedules_per_class");
    EVORD_CHECK(spc <= 1.1,
                name << ": schedules_per_class " << spc << " > 1.1");
  }
  for (const auto& [children, per_child] :
       {std::pair<std::size_t, std::size_t>{4, 2}, {5, 2}, {4, 3}, {6, 2}}) {
    const std::string name = "wide_fork_" + std::to_string(children) + "x" +
                             std::to_string(per_child);
    rows.push_back(
        run_family(name, wide_fork_trace(children, per_child)));
    // The acceptance bar: on the wide-fork family the reduced walk must
    // visit at least 5x fewer states at identical results, and explore
    // one representative schedule per class (the children commute, so a
    // single class covers the whole tree).
    const JsonRecord& row = rows.back();
    const double factor = field_of(row, "reduction_factor_source");
    EVORD_CHECK(factor >= 5.0,
                name << ": reduction factor " << factor << " < 5");
    const double spc = field_of(row, "schedules_per_class");
    EVORD_CHECK(spc <= 1.1,
                name << ": schedules_per_class " << spc << " > 1.1");
  }
  return rows;
}

// Timed off/on pair for the interactive benchmark runner.
void BM_ClassEnum_WideFork_Unreduced(benchmark::State& state) {
  const Trace t = wide_fork_trace(4, 2);
  ClassEnumOptions options;
  options.reduction = search::ReductionMode::kOff;
  for (auto _ : state) {
    const ClassEnumStats stats = enumerate_causal_classes(
        t, options,
        [](std::size_t, const std::vector<EventId>&,
           const std::vector<DynamicBitset>&) { return true; });
    benchmark::DoNotOptimize(stats);
  }
}

void BM_ClassEnum_WideFork_Reduced(benchmark::State& state) {
  const Trace t = wide_fork_trace(4, 2);
  for (auto _ : state) {
    const ClassEnumStats stats = enumerate_causal_classes(
        t, {},
        [](std::size_t, const std::vector<EventId>&,
           const std::vector<DynamicBitset>&) { return true; });
    benchmark::DoNotOptimize(stats);
  }
}

BENCHMARK(BM_ClassEnum_WideFork_Unreduced)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClassEnum_WideFork_Reduced)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!append_json_records("BENCH_por.json", run_por_sweep())) {
    return 1;
  }
  return 0;
}
