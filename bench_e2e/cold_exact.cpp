// cold_exact: one connection analyses never-seen traces end to end: it
// registers the trace, asks one batch of 64 pair questions under causal
// and 64 under interleaving semantics (one relations sweep each), then
// the exact races and the deadlock verdict.  The exact search (ordering
// / search / feasible / race) does most of the work, so search-core
// changes show here while a daemon change should barely move it.  (A
// batch of every pair, ~8000 questions, spends a fifth of the op on
// encoding and decoding it; the sample keeps the op about the search.)
// The traces are sized so the slowest ones stay within a few tens of
// milliseconds: a heavier tail would make one run's throughput depend on
// which few traces the seed happened to draw.
#include <atomic>
#include <cstdio>
#include <mutex>

#include "layers.hpp"
#include "workloads.hpp"

namespace evord::bench_e2e {

namespace {

using daemon::DaemonClient;
using daemon::PairQuerySpec;
using Scope = SpanRecorder::Scope;

constexpr std::uint64_t kSalt = 0xc01d;
/// Traces generated per second of run time: over twice the rate the
/// daemon analyses them at on a 4-core machine.  A run that uses them
/// all up ends early and reports the time it did measure.
constexpr double kTracesPerSecond = 1000.0;
constexpr std::size_t kWarmupOps = 400;
/// Every kCheckEvery-th trace's answers are checked after the run
/// against the engines called directly.
constexpr std::size_t kCheckEvery = 16;
constexpr std::size_t kPairsPerSemantics = 64;

const std::vector<Semantics> kSemantics = {Semantics::kCausal,
                                           Semantics::kInterleaving};

/// 60% semaphore traces, 25% Post/Wait/Clear traces, 15% fork/join.
Trace cold_trace(Rng& rng) {
  const std::uint64_t roll = rng.below(100);
  if (roll < 60) return semaphore_trace(rng, 20, 26, 3);
  if (roll < 85) return event_trace(rng, 16, 24, 3);
  return fork_join_trace(rng, 2, 16, 24);
}

struct Cold {
  std::vector<Input> inputs;
  double heap_base_mb = 0.0;  ///< before the daemon started
  std::unique_ptr<DaemonFixture> daemon;
  std::unique_ptr<DaemonClient> client;
};

std::unique_ptr<Cold> setup(const Config& cfg) {
  auto cold = std::make_unique<Cold>();
  Rng rng(stream_seed(cfg.seed, kSalt));
  const std::size_t count =
      cfg.items(kWarmupOps +
                static_cast<std::size_t>(cfg.seconds * kTracesPerSecond));
  for (std::size_t i = 0; i < count; ++i) {
    cold->inputs.push_back(make_input(cold_trace(rng)));
  }
  cold->heap_base_mb = heap_mb();
  cold->daemon = std::make_unique<DaemonFixture>(daemon_options());
  cold->client = std::move(cold->daemon->connect(1, cfg.seed).front());
  return cold;
}

/// The batch asked about trace `index`: kPairsPerSemantics random pair
/// questions under each of kSemantics, fixed by the seed and the index.
std::vector<PairQuerySpec> batch_for(std::uint64_t seed, std::size_t index,
                                     std::size_t n) {
  Rng rng(stream_seed(seed, kSalt, index + 2));
  std::vector<PairQuerySpec> specs;
  for (const Semantics s : kSemantics) {
    for (std::size_t i = 0; i < kPairsPerSemantics; ++i) {
      specs.push_back(random_spec(rng, n, s));
    }
  }
  return specs;
}

/// What the daemon answered for one trace, kept for the post-run check.
struct Answers {
  std::size_t input = 0;
  std::vector<bool> batch;
  daemon::RaceReply races;
  bool deadlock = false;
};

}  // namespace

RunResult run_cold_exact(const Config& cfg) {
  RunResult result;
  LayerLedger ledger;
  service::TraceRegistry mirror(nullptr, daemon_options().cache_budget_bytes);
  std::vector<double> setup_seconds;
  const auto make = [&] { return setup(cfg); };
  const std::unique_ptr<Cold> cold = timed_setup(setup_seconds, make);

  std::size_t next = 0;
  std::vector<Answers> kept;
  Rng rng(stream_seed(cfg.seed, kSalt, 1));

  const auto op = [&](std::size_t,
                      LayerLedger* traced) -> std::optional<OpResult> {
    if (next == cold->inputs.size()) return std::nullopt;
    const std::size_t index = next++;
    const Input& input = cold->inputs[index];
    const std::size_t n = input.num_events;
    const std::vector<PairQuerySpec> specs = batch_for(cfg.seed, index, n);
    DaemonClient& client = *cold->client;
    const std::uint64_t id = traced != nullptr ? traced->next_op() : 0;
    SpanRecorder* spans = traced != nullptr ? &traced->spans : nullptr;

    OpResult r;
    r.requests = 4;
    double rt_us[4] = {};
    Answers answers;
    answers.input = index;
    {
      Scope op_span(spans, "op", id);
      Scope reg_span(spans, "daemon.register_trace", id);
      const daemon::TraceReply reg = client.register_trace(input.text);
      rt_us[0] = reg_span.end();
      Scope batch_span(spans, "daemon.batch_query", id);
      const daemon::BatchReply batch =
          client.batch_query(input.fingerprint, specs);
      rt_us[1] = batch_span.end();
      Scope race_span(spans, "daemon.race_query", id);
      answers.races = client.race_query(input.fingerprint, 0);
      rt_us[2] = race_span.end();
      Scope deadlock_span(spans, "daemon.deadlock_query", id);
      const daemon::BoolReply deadlock =
          client.deadlock_query(input.fingerprint);
      rt_us[3] = deadlock_span.end();
      r.latency_ms = op_span.end() / 1e3;
      r.ok = reg.ok() && !reg.dedup && reg.fingerprint == input.fingerprint &&
             batch.ok() && batch.values.size() == specs.size() &&
             answers.races.ok() && deadlock.ok();
      answers.batch = batch.values;
      answers.deadlock = deadlock.value;
    }
    if (r.ok && index % kCheckEvery == 0) kept.push_back(std::move(answers));
    if (traced == nullptr) return r;

    // The op again, in-process, through each layer's entry point: the
    // decomposition the self times and the coverage come from.
    std::shared_ptr<service::AnalysisSession> session;
    {
      Scope root(spans, "replay", id);
      double us = 0.0;
      const auto trace = replay_register(*traced, id, mirror, input.text, us);
      session = replay_session(*traced, id, mirror, trace);
      note_request(*traced, rt_us[0], us);
      traced->sample("daemon.register_overhead_us", rt_us[0] - us);
      const EngineTimes t =
          probe_engines(*traced, id, *trace, exact_options());
      note_request(*traced, rt_us[1], t.causal_us + t.interleaving_us);
      note_request(*traced, rt_us[2], t.races_us);
      note_request(*traced, rt_us[3], t.deadlock_us);
    }
    sample_floor(*traced,
                 [&] { return client.deadlock_query(input.fingerprint).ok(); });
    // The same requests through the service layer, for its own numbers
    // (sweeps and cache behaviour per op, a warm lookup afterwards), then
    // the layers this workload does not call.
    Scope root(spans, "probe", id);
    std::vector<service::PairQuery> queries;
    for (const PairQuerySpec& q : specs) queries.push_back(to_query(q));
    {
      std::lock_guard<std::mutex> lock(traced->replay_mu);
      replay_session_call(*traced, id, "service.query_batch", *session, {},
                          [&] { session->query_batch(queries); });
      replay_session_call(*traced, id, "service.races", *session, {},
                          [&] { session->races(RaceDetector::kExact); });
      replay_session_call(*traced, id, "service.deadlocks", *session, {},
                          [&] { session->deadlocks(); });
    }
    probe_warm_lookup(*traced, id,
                      [&] { session->pair_query(queries.front()); });
    const Pairs pairs = random_pairs(rng, n, 8);
    probe_approx(*traced, id, session->trace());
    probe_sat(*traced, id, session->trace(), pairs);
    probe_anytime(*traced, id, session->trace(), pairs);
    return r;
  };

  Phases phases = run_phases(cfg, result, 1, kWarmupOps, ledger, op,
                             [&] { timed_setup(setup_seconds, make); });
  if (cfg.trace) {
    finish_layers(cfg, result, ledger, phases);
  } else {
    add_end_to_end(result, setup_seconds, phases.rounds, cold->heap_base_mb,
                   phases.heap_mb);
  }
  if (daemon_bounces(*cold->client) != 0) result.correct = false;

  std::atomic<std::uint64_t> wrong{0};
  parallel_for(kept.size(), 2, [&](std::size_t i) {
    const Answers& a = kept[i];
    const Reference ref = make_reference(*cold->inputs[a.input].parse(),
                                         kSemantics, true, true);
    if (!answers_match(ref, batch_for(cfg.seed, a.input, ref.n), a.batch) ||
        !ref.races_match(a.races) || ref.can_deadlock != a.deadlock) {
      wrong.fetch_add(1);
    }
  });
  std::fprintf(stderr, "  checked %zu traces against the engines: %llu wrong\n",
               kept.size(), static_cast<unsigned long long>(wrong.load()));
  result.failed += wrong.load();
  return result;
}

}  // namespace evord::bench_e2e
