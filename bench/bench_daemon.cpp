// Daemon experiment: what the hardened socket front end costs and what
// its overload machinery guarantees.  Three row families, one
// BENCH_daemon.json:
//
//   1. Overload storm.  A client herd hammers a daemon whose admission
//      watermark is deliberately tiny.  The acceptance bars pin the
//      shedding contract: every reply is an EXPLICIT typed status (ok /
//      overloaded / rejected — nothing lost, nothing wedged), at least
//      one request was shed, at least one was served, and the daemon
//      answers health cleanly after the storm with zero requests stuck
//      in flight.
//
//   2. Warm-path overhead.  A warm batch of pair queries through the
//      socket (framing + two syscalls, answers from the session cache)
//      against the same warm batch in-process.  The bar: the daemon's
//      amortized per-query cost stays within 40x of the in-process
//      call — the front end adds transport, not recomputation (the
//      in-process warm path is a ~6ns cache hit, so the multiplier is
//      headroom for syscall jitter on a loaded CI box; measured ratios
//      run 6-15x on a 4-core x86-64 VM).
//
//   3. Deadline degradation.  Anytime queries under a starvation ladder
//      (1 state / 1 schedule / 1 SAT conflict): every rung truncates,
//      so verdicts degrade.  The bars: at least one query came back
//      degraded, and NO definitive verdict contradicts the exact
//      relations computed in-process — degradation is sound, never
//      wrong.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "ordering/relations.hpp"
#include "service/session.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace {

using namespace evord;
using namespace evord::bench;
using evord::daemon::ClientOptions;
using evord::daemon::Daemon;
using evord::daemon::DaemonClient;
using evord::daemon::DaemonOptions;
using evord::daemon::PairQuerySpec;
using evord::daemon::RequestStatus;

std::string unique_socket(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/evord-bench-" + std::string(tag) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ClientOptions client_options(const std::string& path,
                             const std::string& tenant = "bench") {
  ClientOptions options;
  options.socket_path = path;
  options.tenant = tenant;
  options.timeout_ms = 60'000;
  options.max_retries = 3;
  options.backoff_base_ms = 2;
  return options;
}

/// The ~20-event random trace all three experiments analyze (expensive
/// enough that a cold sweep takes real time, small enough to exhaust).
Trace bench_trace() {
  Rng rng(11);
  return random_sem_trace(/*num_events=*/20, /*num_procs=*/4,
                          /*num_sems=*/3, rng, /*num_vars=*/3);
}

// ---------------------------------------------------------------------
// 1. Overload storm: explicit sheds, nothing lost.

JsonRecord run_overload_storm() {
  const std::string path = unique_socket("storm");
  DaemonOptions options;
  options.socket_path = path;
  options.max_queue_depth = 1;  // admit one request at a time
  options.executor_threads = 1;
  Daemon daemon(options);
  daemon.start();

  // One tenant for the whole herd: trace registries are per-tenant, so
  // the seeded trace must be visible to every storming client.
  const Trace trace = bench_trace();
  {
    DaemonClient seeder(client_options(path, "storm"));
    EVORD_CHECK(seeder.register_trace(write_trace(trace)).ok(),
                "storm: trace registration failed");
  }

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  std::atomic<std::uint64_t> ok{0}, overloaded{0}, rejected{0}, other{0};
  std::atomic<bool> go{false};
  Timer timer;
  std::vector<std::thread> herd;
  for (int t = 0; t < kThreads; ++t) {
    herd.emplace_back([&, t] {
      ClientOptions co = client_options(path, "storm");
      co.max_retries = 0;  // a shed must SURFACE, not be retried away
      DaemonClient client(co);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kQueriesPerThread; ++i) {
        PairQuerySpec q;
        q.a = static_cast<std::uint32_t>((t + i) % 4);
        q.b = static_cast<std::uint32_t>(10 + ((t * 3 + i) % 8));
        const auto reply = client.pair_query(trace.fingerprint(), q);
        switch (reply.status) {
          case RequestStatus::kOk:
            ok.fetch_add(1);
            break;
          case RequestStatus::kOverloaded:
            overloaded.fetch_add(1);
            break;
          case RequestStatus::kRejected:
            rejected.fetch_add(1);
            break;
          default:
            other.fetch_add(1);
            break;
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : herd) t.join();
  const double storm_ms = static_cast<double>(timer.micros()) / 1000.0;

  // The daemon is still fully healthy after the storm: every herd
  // thread holds its last reply, so no request is in flight.
  DaemonClient probe(client_options(path, "probe"));
  const auto health = probe.health();
  EVORD_CHECK(health.ok(), "storm: health probe failed after the storm");
  EVORD_CHECK(health.in_flight == 0, "storm: requests stuck in flight");
  daemon.stop();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kQueriesPerThread;
  // The shedding contract: every request got an explicit typed answer,
  // some were shed, some were served, none vanished into a transport
  // failure or a hang.
  EVORD_CHECK(ok + overloaded + rejected == total,
              "storm: a request got no explicit typed reply");
  EVORD_CHECK(other == 0, "storm: transport failures under overload");
  EVORD_CHECK(overloaded >= 1, "storm: the watermark never shed");
  EVORD_CHECK(ok >= 1, "storm: nothing was served under overload");

  JsonRecord row;
  row.add("experiment", std::string("daemon_overload_storm"));
  row.add("clients", std::uint64_t{kThreads});
  row.add("requests", total);
  row.add("served", ok.load());
  row.add("shed", overloaded.load());
  row.add("rejected", rejected.load());
  row.add("storm_ms", storm_ms);
  row.add("sheds_reported_by_daemon", health.sheds);
  return row;
}

// ---------------------------------------------------------------------
// 2. Warm-path overhead: socket batch vs in-process batch.

JsonRecord run_warm_overhead() {
  const std::string path = unique_socket("warm");
  DaemonOptions options;
  options.socket_path = path;
  Daemon daemon(options);
  daemon.start();

  const Trace trace = bench_trace();
  auto shared = std::make_shared<const Trace>(trace);
  service::AnalysisSession direct(shared);

  constexpr std::size_t kBatch = 1024;
  std::vector<PairQuerySpec> wire_batch;
  std::vector<service::PairQuery> direct_batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    PairQuerySpec spec;
    spec.relation = static_cast<std::uint8_t>(i % kNumRelationKinds);
    spec.a = static_cast<std::uint32_t>(i % trace.num_events());
    spec.b = static_cast<std::uint32_t>((i * 7 + 3) % trace.num_events());
    wire_batch.push_back(spec);
    service::PairQuery q;
    q.relation = static_cast<RelationKind>(spec.relation);
    q.a = spec.a;
    q.b = spec.b;
    direct_batch.push_back(q);
  }

  DaemonClient client(client_options(path));
  EVORD_CHECK(client.register_trace(write_trace(trace)).ok(),
              "warm: registration failed");
  // Warm both paths (the cold sweep happens exactly once per side).
  const auto first = client.batch_query(trace.fingerprint(), wire_batch);
  EVORD_CHECK(first.ok(), "warm: cold batch failed");
  const auto direct_first = direct.query_batch(direct_batch);
  EVORD_CHECK(first.values == direct_first,
              "warm: daemon batch disagrees with the in-process batch");

  constexpr int kRounds = 20;
  Timer wire_timer;
  for (int r = 0; r < kRounds; ++r) {
    const auto reply = client.batch_query(trace.fingerprint(), wire_batch);
    EVORD_CHECK(reply.ok() && reply.values == direct_first,
                "warm: warm batch went wrong");
  }
  const double wire_us_per_query =
      static_cast<double>(wire_timer.micros()) / (kRounds * kBatch);
  Timer direct_timer;
  for (int r = 0; r < kRounds; ++r) {
    const auto values = direct.query_batch(direct_batch);
    EVORD_CHECK(values == direct_first, "warm: in-process batch went wrong");
  }
  const double direct_us_per_query =
      static_cast<double>(direct_timer.micros()) / (kRounds * kBatch);
  daemon.stop();

  const double ratio = direct_us_per_query > 0.0
                           ? wire_us_per_query / direct_us_per_query
                           : 0.0;
  // The front end adds transport, not recomputation: amortized warm
  // per-query cost through the socket within 40x of the in-process
  // cache hit (measured 6-15x on a 4-core x86-64 VM; a cold
  // recomputation would be orders of magnitude beyond the bar).
  EVORD_CHECK(ratio <= 40.0, "warm: socket overhead ratio " +
                                 std::to_string(ratio) + " exceeds 40x");

  JsonRecord row;
  row.add("experiment", std::string("daemon_warm_overhead"));
  row.add("batch", std::uint64_t{kBatch});
  row.add("rounds", std::uint64_t{kRounds});
  row.add("wire_us_per_query", wire_us_per_query);
  row.add("inprocess_us_per_query", direct_us_per_query);
  row.add("overhead_ratio", ratio);
  return row;
}

// ---------------------------------------------------------------------
// 3. Deadline degradation is sound.

JsonRecord run_degradation_soundness() {
  const std::string path = unique_socket("degrade");
  DaemonOptions options;
  options.socket_path = path;
  // Starvation ladder: every rung truncates, so every verdict must
  // degrade — and still never contradict the exact answer.
  QueryBudget starve;
  starve.max_states = 1;
  starve.max_schedules = 1;
  starve.max_conflicts = 1;
  options.anytime_ladder = {starve};
  Daemon daemon(options);
  daemon.start();

  const Trace trace = bench_trace();
  service::AnalysisSession direct(std::make_shared<const Trace>(trace));
  const auto relations = direct.relations(Semantics::kCausal);
  EVORD_CHECK(!relations->truncated, "degrade: exact reference truncated");

  DaemonClient client(client_options(path));
  EVORD_CHECK(client.register_trace(write_trace(trace)).ok(),
              "degrade: registration failed");

  std::uint64_t queries = 0, degraded = 0, definitive = 0, unknown = 0;
  Timer timer;
  for (EventId a = 0; a < trace.num_events(); a += 2) {
    for (EventId b = 1; b < trace.num_events(); b += 3) {
      if (a == b) continue;
      const auto verdict =
          client.anytime_query(trace.fingerprint(), /*which=*/0,
                               /*semantics=*/1, a, b);
      EVORD_CHECK(verdict.ok(), "degrade: anytime query failed");
      ++queries;
      if (verdict.degraded) ++degraded;
      const bool exact_mhb = relations->matrices[0].holds(a, b);
      if (verdict.state == 1) {
        ++definitive;
        EVORD_CHECK(exact_mhb, "degrade: proved a false must-ordering");
      } else if (verdict.state == 2) {
        ++definitive;
        EVORD_CHECK(!exact_mhb, "degrade: refuted a true must-ordering");
      } else {
        ++unknown;
      }
    }
  }
  const double sweep_ms = static_cast<double>(timer.micros()) / 1000.0;
  daemon.stop();

  EVORD_CHECK(degraded >= 1,
              "degrade: the starvation ladder never degraded a verdict");

  JsonRecord row;
  row.add("experiment", std::string("daemon_degradation_soundness"));
  row.add("queries", queries);
  row.add("degraded", degraded);
  row.add("definitive", definitive);
  row.add("unknown", unknown);
  row.add("sweep_ms", sweep_ms);
  return row;
}

std::vector<JsonRecord> run_daemon_sweep() {
  std::vector<JsonRecord> rows;
  rows.push_back(run_overload_storm());
  rows.push_back(run_warm_overhead());
  rows.push_back(run_degradation_soundness());
  return rows;
}

// Timed pair for the interactive benchmark runner.
void BM_DaemonWarmPairQuery(benchmark::State& state) {
  const std::string path = unique_socket("bm");
  DaemonOptions options;
  options.socket_path = path;
  Daemon daemon(options);
  daemon.start();
  const Trace trace = bench_trace();
  DaemonClient client(client_options(path));
  client.register_trace(write_trace(trace));
  PairQuerySpec q;
  q.a = 0;
  q.b = 5;
  client.pair_query(trace.fingerprint(), q);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.pair_query(trace.fingerprint(), q));
  }
  daemon.stop();
}

BENCHMARK(BM_DaemonWarmPairQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!append_json_records("BENCH_daemon.json", run_daemon_sweep())) {
    return 1;
  }
  return 0;
}
