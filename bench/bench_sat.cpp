// Experiment E11: SAT substrate validation and the ordering-oracle
// speedup sweep.
//
// The CDCL solver is the fast side of every oracle comparison, so its own
// behavior is benchmarked: random 3SAT across the clause/variable ratio
// (the phase transition at m/n ~ 4.26 shows as a solve-time peak and a
// ~50% sat fraction), the pigeonhole family (hard UNSAT), and DPLL as the
// baseline the CDCL solver must dominate on structured instances.
//
// On top of the substrate, run_oracle_sweep() appends oracle-vs-explicit
// rows to BENCH_sat.json: per-pair wall time of the SAT-backed ordering
// oracle against compute_exact under interleaving semantics, with
// learned-clause/pair-memo reuse counters.  On families the explicit
// engine finishes, every oracle verdict is checked against the exact
// matrices; on the wide-fork family the explicit sweep truncates at its
// state budget while the oracle decides every pair — the hard bars below
// (>= 10x wall time, one cold solve, zero unknowns) encode that claim.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ordering/exact.hpp"
#include "ordering/sat_oracle.hpp"
#include "sat/cdcl.hpp"
#include "sat/dpll.hpp"
#include "sat/gen.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace {

using namespace evord;
using evord::bench::JsonRecord;

void BM_Cdcl_Random3SatRatio(benchmark::State& state) {
  // ratio_x10 = 10 * m/n; n fixed at 60.
  const double ratio = static_cast<double>(state.range(0)) / 10.0;
  const std::int32_t n = 60;
  const auto m = static_cast<std::size_t>(ratio * n);
  Rng rng(1234 + state.range(0));
  std::vector<CnfFormula> instances;
  for (int i = 0; i < 10; ++i) instances.push_back(random_3sat(n, m, rng));

  std::size_t sat_count = 0;
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    sat_count = 0;
    conflicts = 0;
    for (const CnfFormula& f : instances) {
      const SatResult r = solve(f);
      sat_count += r.satisfiable ? 1 : 0;
      conflicts += r.stats.conflicts;
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["sat_fraction"] =
      static_cast<double>(sat_count) / static_cast<double>(instances.size());
  state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_Cdcl_Random3SatRatio)
    ->Arg(30)   // m/n = 3.0: almost surely SAT, easy
    ->Arg(38)
    ->Arg(43)   // ~ the phase transition
    ->Arg(48)
    ->Arg(60)   // almost surely UNSAT, easy again
    ->Unit(benchmark::kMillisecond);

void BM_Cdcl_Pigeonhole(benchmark::State& state) {
  const auto holes = static_cast<std::int32_t>(state.range(0));
  const CnfFormula f = pigeonhole(holes);
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    const SatResult r = solve(f);
    EVORD_CHECK(!r.satisfiable, "pigeonhole must be UNSAT");
    conflicts = r.stats.conflicts;
    benchmark::DoNotOptimize(r);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_Cdcl_Pigeonhole)
    ->DenseRange(4, 7, 1)
    ->Unit(benchmark::kMillisecond);

void BM_Dpll_Random3Sat(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  const auto m = static_cast<std::size_t>(4.3 * n);
  Rng rng(99);
  std::vector<CnfFormula> instances;
  for (int i = 0; i < 5; ++i) instances.push_back(random_3sat(n, m, rng));
  for (auto _ : state) {
    for (const CnfFormula& f : instances) {
      benchmark::DoNotOptimize(solve_dpll(f));
    }
  }
}
BENCHMARK(BM_Dpll_Random3Sat)
    ->DenseRange(20, 40, 10)
    ->Unit(benchmark::kMillisecond);

void BM_Cdcl_Random3Sat(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  const auto m = static_cast<std::size_t>(4.3 * n);
  Rng rng(99);
  std::vector<CnfFormula> instances;
  for (int i = 0; i < 5; ++i) instances.push_back(random_3sat(n, m, rng));
  for (auto _ : state) {
    for (const CnfFormula& f : instances) {
      benchmark::DoNotOptimize(solve(f));
    }
  }
}
BENCHMARK(BM_Cdcl_Random3Sat)
    ->DenseRange(20, 40, 10)
    ->Unit(benchmark::kMillisecond);

void BM_Cdcl_ReductionShapedInstances(benchmark::State& state) {
  // The formulas the ordering oracle actually sees.
  const auto m = static_cast<std::int32_t>(state.range(0));
  const CnfFormula f = evord::bench::scaling_unsat(m);
  for (auto _ : state) {
    const SatResult r = solve(f);
    EVORD_CHECK(!r.satisfiable, "family is UNSAT");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Cdcl_ReductionShapedInstances)
    ->RangeMultiplier(8)
    ->Range(8, 512)
    ->Unit(benchmark::kMicrosecond);

// ----------------------------------------------------------------------
// Oracle vs explicit: per-pair ordering queries under interleaving
// semantics.  One row per workload for BENCH_sat.json.

// Queries CHB and MHB for every ordered pair through one warm oracle,
// timing the whole sweep; verdict bits are kept for the agreement check.
struct OracleSweep {
  double wall_ms = 0.0;
  std::uint64_t pairs = 0;
  std::uint64_t unknown = 0;
  std::vector<std::uint8_t> chb;  ///< n*n, 1 = proven (valid iff decided)
  std::vector<std::uint8_t> mhb;
  SatOracleStats stats;
};

OracleSweep sweep_every_pair(const std::string& workload,
                             const Trace& trace) {
  const std::size_t n = trace.num_events();
  SatOracle oracle(trace);
  EVORD_CHECK(oracle.available(), workload << ": oracle declined the trace");
  OracleSweep sweep;
  sweep.chb.assign(n * n, 0);
  sweep.mhb.assign(n * n, 0);
  Timer timer;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      ++sweep.pairs;
      const auto ea = static_cast<EventId>(a);
      const auto eb = static_cast<EventId>(b);
      const OracleVerdict chb =
          oracle.query(RelationKind::kCHB, ea, eb, Semantics::kInterleaving);
      const OracleVerdict mhb =
          oracle.query(RelationKind::kMHB, ea, eb, Semantics::kInterleaving);
      // Interleaving semantics is complete relative to the solver: with
      // an unlimited conflict budget every pair must be decided.
      if (chb == OracleVerdict::kUnknown || mhb == OracleVerdict::kUnknown) {
        ++sweep.unknown;
        continue;
      }
      sweep.chb[a * n + b] = chb == OracleVerdict::kProven ? 1 : 0;
      sweep.mhb[a * n + b] = mhb == OracleVerdict::kProven ? 1 : 0;
    }
  }
  sweep.wall_ms = static_cast<double>(timer.micros()) / 1000.0;
  sweep.stats = oracle.stats();
  return sweep;
}

JsonRecord run_oracle_family(const std::string& workload, const Trace& trace,
                             std::size_t explicit_max_states) {
  const std::size_t n = trace.num_events();
  const OracleSweep sweep = sweep_every_pair(workload, trace);

  // The explicit side answers the same matrix in one memoized
  // state-space sweep — or fails to, when the budget truncates it.
  ExactOptions exact_options;
  exact_options.max_states = explicit_max_states;
  Timer explicit_timer;
  const OrderingRelations exact =
      compute_exact(trace, Semantics::kInterleaving, exact_options);
  const double explicit_ms =
      static_cast<double>(explicit_timer.micros()) / 1000.0;

  // Hard bars shared by every family: one cold encode serves the whole
  // sweep (learned clauses, phases and the pair memo persist across the
  // n^2 queries), and no interleaving pair stays undecided.
  EVORD_CHECK(sweep.stats.solver_builds == 1,
              workload << ": " << sweep.stats.solver_builds
                       << " solver builds for one trace");
  EVORD_CHECK(sweep.unknown == 0,
              workload << ": " << sweep.unknown
                       << " interleaving pairs undecided");
  EVORD_CHECK(sweep.stats.witness_replay_failures == 0,
              workload << ": a SAT model failed schedule replay");
  EVORD_CHECK(sweep.stats.pair_memo_hits > 0,
              workload << ": no pair-memo reuse across queries");

  if (!exact.truncated) {
    // Where the exact engine finishes, the oracle must agree bit for bit.
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const auto ea = static_cast<EventId>(a);
        const auto eb = static_cast<EventId>(b);
        EVORD_CHECK(
            (sweep.chb[a * n + b] != 0) == exact.holds(RelationKind::kCHB,
                                                       ea, eb),
            workload << ": CHB(" << a << "," << b << ") disagrees");
        EVORD_CHECK(
            (sweep.mhb[a * n + b] != 0) == exact.holds(RelationKind::kMHB,
                                                       ea, eb),
            workload << ": MHB(" << a << "," << b << ") disagrees");
      }
    }
  }

  const double per_pair_us =
      sweep.pairs > 0
          ? sweep.wall_ms * 1000.0 / static_cast<double>(sweep.pairs)
          : 0.0;
  return JsonRecord{}
      .add("experiment", std::string("oracle_vs_explicit"))
      .add("workload", workload)
      .add("events", static_cast<std::uint64_t>(n))
      .add("pairs", sweep.pairs)
      .add("oracle_wall_ms", sweep.wall_ms)
      .add("oracle_us_per_pair", per_pair_us)
      .add("explicit_wall_ms", explicit_ms)
      .add("explicit_truncated",
           static_cast<std::uint64_t>(exact.truncated ? 1 : 0))
      .add("explicit_states",
           static_cast<std::uint64_t>(exact.states_visited))
      .add("speedup_vs_explicit",
           sweep.wall_ms > 0.0 ? explicit_ms / sweep.wall_ms : 0.0)
      .add("sat_calls", sweep.stats.sat_calls)
      .add("sat_models", sweep.stats.sat_models)
      .add("pair_memo_hits", sweep.stats.pair_memo_hits)
      .add("learned_clauses", sweep.stats.solver.learned_clauses)
      .add("conflicts", sweep.stats.solver.conflicts)
      .add("solver_builds", sweep.stats.solver_builds)
      .add("encode_vars", static_cast<std::uint64_t>(sweep.stats.encode_vars))
      .add("encode_clauses",
           static_cast<std::uint64_t>(sweep.stats.encode_clauses));
}

std::vector<JsonRecord> run_oracle_sweep() {
  std::vector<JsonRecord> rows;

  // Small random families: the explicit engine exhausts the state space,
  // so these rows double as an all-pairs agreement check (done inside
  // run_oracle_family) with timings on honest terms for both sides.
  {
    Rng rng(7);
    rows.push_back(run_oracle_family(
        "sem_12ev", evord::bench::random_sem_trace(12, 3, 2, rng),
        /*explicit_max_states=*/0));
  }
  {
    Rng rng(11);
    rows.push_back(run_oracle_family(
        "event_12ev", evord::bench::random_event_trace(12, 3, 2, rng),
        /*explicit_max_states=*/0));
  }

  // The headline family: wide_fork(12, 3) has ~4^12 interleaving states,
  // so the explicit sweep truncates at the 2M-state budget with its
  // matrices unusable, while the oracle settles every one of the ~3500
  // pairs from a few dozen SAT models.  The acceptance bar from the
  // experiment plan: >= 10x wall time on a family where explicit
  // truncates.
  {
    const JsonRecord& row = rows.emplace_back(run_oracle_family(
        "wide_fork_12x3", wide_fork_trace(12, 3),
        /*explicit_max_states=*/2'000'000));
    const auto field_of = [&row](const std::string& key) {
      for (const auto& [k, v] : row.fields) {
        if (k == key) return std::stod(v);
      }
      EVORD_CHECK(false, "missing bench field " << key);
      return 0.0;
    };
    EVORD_CHECK(field_of("explicit_truncated") == 1.0,
                "wide_fork_12x3: explicit sweep unexpectedly finished");
    const double speedup = field_of("speedup_vs_explicit");
    EVORD_CHECK(speedup >= 10.0,
                "wide_fork_12x3: oracle speedup " << speedup << " < 10x");
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!evord::bench::append_json_records("BENCH_sat.json",
                                         run_oracle_sweep())) {
    return 1;
  }
  return 0;
}
