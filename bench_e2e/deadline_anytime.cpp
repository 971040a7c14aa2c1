// deadline_anytime: one connection asks 16 anytime questions (must-have-
// happened-before and could-have-been-concurrent, alternating) about
// each of a stream of traces past the exact wall.  Every question carries
// a 50 ms deadline on the wire, so the daemon answers it under the ladder
// it derives from the deadline (resilience::deadline_ladder, rung memory
// clamped to the tenant's cache share), and a reply after 50 ms counts as
// late.  The first query per trace pays the ladder climb (truncated exact
// rungs, the polynomial bounds, the SAT oracle's encode); the rest mostly
// reuse its runs.  This is where the ladder, the witness searches,
// `combined` and the oracle show, and where the user-visible trade-off
// between answering on time and answering definitively lives.  One
// connection, since with two a follow-up's latency mostly measured
// whether the other connection's ladder climb held the cores at that
// moment.
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "layers.hpp"
#include "ordering/sat_oracle.hpp"
#include "workloads.hpp"

namespace evord::bench_e2e {

namespace {

using daemon::DaemonClient;
using Scope = SpanRecorder::Scope;

constexpr std::uint64_t kSalt = 0xdead;
constexpr std::size_t kQueriesPerTrace = 16;
constexpr std::size_t kConnections = 1;
/// Traces generated per second of run time: about twice the rate one
/// connection gets through them on a 4-core machine.
constexpr double kTracesPerSecond = 25.0;
/// Definitive verdicts on every kCheckEvery-th trace are checked after
/// the run against the SAT oracle.
constexpr std::size_t kCheckEvery = 2;
/// Before the memory reading, one question about each of a fixed set of
/// calibration traces, the same whatever the --seed; see calibrate().
constexpr std::size_t kCalibrationTraces = 6;

/// 55% semaphore traces, 45% Post/Wait/Clear traces, in narrow size
/// bands: how long a follow-up query takes grows with the trace, and a
/// wide band makes the median latency depend on the seed's mix of sizes.
/// Random fork/join traces of this size are left out: on some of them
/// one oracle call under the deadline ladder runs for tens of seconds
/// (no deadline bounds an oracle call).
Trace wall_trace(Rng& rng) {
  return rng.below(100) < 55 ? semaphore_trace(rng, 52, 60, 4)
                             : event_trace(rng, 44, 52, 4);
}

/// A calibration trace: with eight processes, far enough past the wall
/// of the exact search that no rung of the 50 ms ladder completes on it.
Trace calibration_trace(Rng& rng) { return semaphore_trace(rng, 56, 60, 8); }

/// The first and the last event of the trace's longest process: ordered
/// in every execution, by program order.
std::pair<EventId, EventId> program_ordered_pair(const Trace& trace) {
  const std::vector<EventId>* longest = &trace.process(0).events;
  for (ProcId p = 1; p < trace.num_processes(); ++p) {
    if (trace.process(p).events.size() > longest->size()) {
      longest = &trace.process(p).events;
    }
  }
  return {longest->front(), longest->back()};
}

struct Anytime {
  std::vector<Input> inputs;
  std::vector<Pairs> pairs;   ///< the questions asked about inputs[i]
  double heap_base_mb = 0.0;  ///< before the daemon started
  std::unique_ptr<DaemonFixture> daemon;
  std::vector<std::unique_ptr<DaemonClient>> clients;
};

std::unique_ptr<Anytime> setup(const Config& cfg, LayerLedger* ledger,
                               Mirror* mirror) {
  auto state = std::make_unique<Anytime>();
  Rng rng(stream_seed(cfg.seed, kSalt));
  const std::size_t count =
      cfg.items(static_cast<std::size_t>(cfg.seconds * kTracesPerSecond));
  for (std::size_t i = 0; i < count; ++i) {
    state->inputs.push_back(make_input(wall_trace(rng)));
    state->pairs.push_back(
        random_pairs(rng, state->inputs.back().num_events, kQueriesPerTrace));
  }
  state->heap_base_mb = heap_mb();
  state->daemon = std::make_unique<DaemonFixture>(daemon_options());
  state->clients = state->daemon->connect(kConnections, cfg.seed);
  if (mirror != nullptr) mirror->sessions.resize(state->inputs.size());
  for (std::size_t i = 0; i < state->inputs.size(); ++i) {
    if (!register_input(*state->clients[0], state->inputs[i], i, ledger,
                        mirror)) {
      throw std::runtime_error("deadline_anytime: a registration failed");
    }
  }
  return state;
}

/// Registers kCalibrationTraces traces drawn from one fixed stream and
/// asks about each whether the first event of its longest process must
/// happen before the last one, under interval semantics and the 50 ms
/// deadline.  No rung completes on these traces and interval semantics
/// has no polynomial bound to fall back on, so every answer comes from
/// the SAT oracle, which stays encoded in the trace's session.  The
/// memory reading that follows therefore holds a fixed number of
/// encodings.  The stream's own questions reach the oracle on about one
/// trace in seven, and on some traces only when a time-boxed rung
/// happened to stop early, so a reading taken after them moves by
/// several MiB from run to run.  Interleaving semantics would do as well
/// but for a defect of its time-boxed parallel search (see BENCHMARK.md),
/// which fails about one such question in a hundred with an error reply.
/// Every answer must be a proof.
void calibrate(DaemonClient& client, RunResult& result) {
  Rng rng(stream_seed(0, kSalt, 1));
  std::size_t by_oracle = 0;
  for (std::size_t i = 0; i < kCalibrationTraces; ++i) {
    const Trace trace = calibration_trace(rng);
    const Input input = make_input(trace);
    const auto [a, b] = program_ordered_pair(trace);
    const daemon::TraceReply reg = client.register_trace(input.text);
    const daemon::VerdictReply reply = client.anytime_query(
        input.fingerprint, 0, static_cast<std::uint8_t>(Semantics::kInterval),
        a, b, kDeadlineMs);
    result.attempted += 1;
    if (!reg.ok() || reg.fingerprint != input.fingerprint || !reply.ok() ||
        reply.state != static_cast<std::uint8_t>(VerdictState::kProven)) {
      result.failed += 1;
    }
    if (reply.engine == "sat-oracle") {
      ++by_oracle;
    } else {
      std::fprintf(stderr,
                   "  calibration trace %zu: state %u from '%s' (%s)\n", i,
                   static_cast<unsigned>(reply.state), reply.engine.c_str(),
                   reply.ok() ? "ok" : reply.message.c_str());
    }
  }
  std::fprintf(stderr, "  calibration: %zu traces, %zu answered by the SAT "
               "oracle\n", kCalibrationTraces, by_oracle);
}

/// One definitive verdict the daemon gave, kept for the post-run check.
struct Verdict {
  std::size_t input = 0;
  bool concurrent = false;  ///< CCW query (else MHB)
  EventId a = 0;
  EventId b = 0;
  bool proven = false;
};

/// A connection works through one trace's queries at a time.
struct Cursor {
  std::size_t input = 0;
  std::size_t query = kQueriesPerTrace;
};

/// The exact configuration of the ladder's last rung: what one exact
/// engine call may spend under the 50 ms deadline.  Serial: the parallel
/// interleaving search, stopped by its time budget, fails about one call
/// in seven hundred on these traces (see BENCHMARK.md).
ExactOptions last_rung_options() {
  const QueryBudget rung = anytime_ladder().back();
  ExactOptions options = exact_options();
  options.num_threads = 1;
  options.max_states = rung.max_states;
  options.max_schedules = rung.max_schedules;
  options.max_memory_bytes = rung.max_memory_bytes;
  options.time_budget_seconds = rung.time_budget_seconds;
  return options;
}

}  // namespace

RunResult run_deadline_anytime(const Config& cfg) {
  RunResult result;
  LayerLedger ledger;
  Mirror mirror;
  std::vector<double> setup_seconds;
  const std::unique_ptr<Anytime> state = timed_setup(setup_seconds, [&] {
    return setup(cfg, cfg.trace ? &ledger : nullptr,
                 cfg.trace ? &mirror : nullptr);
  });
  const auto resetup = [&] {
    timed_setup(setup_seconds, [&] { return setup(cfg, nullptr, nullptr); });
  };
  const std::vector<QueryBudget> ladder = anytime_ladder();

  std::atomic<std::size_t> next{0};
  std::vector<Cursor> cursors(kConnections);
  std::mutex kept_mu;
  std::vector<Verdict> kept;

  const auto op = [&](std::size_t w,
                      LayerLedger* traced) -> std::optional<OpResult> {
    Cursor& cur = cursors[w];
    if (cur.query == kQueriesPerTrace) {
      cur.input = next.fetch_add(1);
      if (cur.input >= state->inputs.size()) return std::nullopt;
      cur.query = 0;
    }
    const Input& input = state->inputs[cur.input];
    const Pairs& pairs = state->pairs[cur.input];
    const std::size_t q = cur.query++;
    const auto [a, b] = pairs[q];
    const bool concurrent = q % 2 == 1;
    const std::uint64_t id = traced != nullptr ? traced->next_op() : 0;
    SpanRecorder* spans = traced != nullptr ? &traced->spans : nullptr;
    const auto ask = [&] {
      return state->clients[w]->anytime_query(
          input.fingerprint, concurrent ? 1 : 0,
          static_cast<std::uint8_t>(Semantics::kCausal), a, b, kDeadlineMs);
    };

    OpResult r;
    double rt_us = 0.0;
    daemon::VerdictReply reply;
    {
      Scope op_span(spans, "op", id);
      Scope req(spans, "daemon.anytime_query", id);
      reply = ask();
      rt_us = req.end();
    }
    r.latency_ms = rt_us / 1e3;
    r.ok = reply.ok();
    r.definitive = reply.state != 0;
    r.late = r.latency_ms > kDeadlineMs;
    if (r.ok && r.definitive && cur.input % kCheckEvery == 0) {
      std::lock_guard<std::mutex> lock(kept_mu);
      kept.push_back({cur.input, concurrent, a, b, reply.state == 1});
    }
    if (traced == nullptr) return r;

    traced->sample("resilience.late", r.late ? 1.0 : 0.0);
    {
      std::lock_guard<std::mutex> lock(traced->replay_mu);
      Scope root(spans, "replay", id);
      service::AnalysisSession& session = *mirror.sessions[cur.input];
      BoundedVerdict verdict;
      const double us = replay_session_call(
          *traced, id, "resilience.anytime", session, rt_us, [&] {
            verdict = concurrent ? session.anytime_could_have_been_concurrent(
                                       a, b, ladder)
                                 : session.anytime_must_have_happened_before(
                                       a, b, Semantics::kCausal, ladder);
          });
      note_verdict(*traced, verdict, us / 1e3, q == 0);
    }
    sample_floor(*traced, [&] { return ask().ok(); });
    if (cur.query == kQueriesPerTrace) {
      // The trace is done: time the layers the ladder calls into, one by
      // one, on it, and a repeat of its first query (a cache hit).
      Scope root(spans, "probe", id);
      probe_warm_lookup(*traced, id, [&] {
        mirror.sessions[cur.input]->anytime_must_have_happened_before(
            pairs[0].first, pairs[0].second, Semantics::kCausal, ladder);
      });
      const Trace trace = probe_trace(*traced, id, input.text);
      probe_engines(*traced, id, trace, last_rung_options());
      probe_approx(*traced, id, trace);
      probe_sat(*traced, id, trace, pairs);
    }
    return r;
  };

  calibrate(*state->clients[0], result);
  Phases phases =
      run_phases(cfg, result, kConnections, 0, ledger, op, resetup);
  if (cfg.trace) {
    finish_layers(cfg, result, ledger, phases);
  } else {
    add_end_to_end(result, setup_seconds, phases.rounds, state->heap_base_mb,
                   phases.heap_mb);
  }
  if (daemon_bounces(*state->clients[0]) != 0) result.correct = false;

  // No definitive verdict may contradict a verdict the SAT oracle
  // decides for the same question.
  std::map<std::size_t, std::vector<Verdict>> by_trace;
  for (const Verdict& v : kept) by_trace[v.input].push_back(v);
  std::vector<const std::vector<Verdict>*> groups;
  for (const auto& [input, verdicts] : by_trace) groups.push_back(&verdicts);
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> checked{0};
  parallel_for(groups.size(), 2, [&](std::size_t g) {
    const std::vector<Verdict>& verdicts = *groups[g];
    const ExactOptions exact = exact_options();
    SatOracleOptions options;
    options.respect_dependences = exact.respect_dependences;
    options.causal_data_edges = exact.causal_data_edges;
    options.max_conflicts = kMaxConflicts;  // undecided = not checked
    const auto trace = state->inputs[verdicts.front().input].parse();
    SatOracle oracle(*trace, options);
    for (const Verdict& v : verdicts) {
      const OracleVerdict o = oracle.query(
          v.concurrent ? RelationKind::kCCW : RelationKind::kMHB, v.a, v.b,
          Semantics::kCausal);
      if (o == OracleVerdict::kUnknown) continue;
      checked.fetch_add(1);
      if ((o == OracleVerdict::kProven) != v.proven) wrong.fetch_add(1);
    }
  });
  std::fprintf(stderr,
               "  checked %llu of %zu definitive verdicts against the SAT "
               "oracle: %llu wrong\n",
               static_cast<unsigned long long>(checked.load()), kept.size(),
               static_cast<unsigned long long>(wrong.load()));
  result.failed += wrong.load();
  return result;
}

}  // namespace evord::bench_e2e
