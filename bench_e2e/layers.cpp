#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "approx/combined.hpp"
#include "approx/vector_clock.hpp"
#include "ordering/sat_oracle.hpp"
#include "race/race_detector.hpp"
#include "trace/trace_io.hpp"

namespace evord::bench_e2e {

namespace {

using Scope = SpanRecorder::Scope;

/// The engines a verdict's provenance can name that the ledger reports a
/// share for.
constexpr const char* kEngines[] = {"exact", "exact-partial", "combined",
                                    "vector-clock", "sat-oracle"};

void note_search(LayerLedger& ledger, const search::SearchStats& stats,
                 double us) {
  const double workers =
      static_cast<double>(std::max<std::size_t>(stats.workers.size(), 1));
  ledger.sample("search.states", static_cast<double>(stats.states_visited));
  ledger.sample("search.seconds", us / 1e6);
  ledger.sample("search.memo_bytes", static_cast<double>(stats.memo_bytes));
  ledger.sample("search.idle_ns", static_cast<double>(stats.idle_nanos()));
  ledger.sample("search.worker_ns", us * 1e3 * workers);
  ledger.sample("search.tasks_stolen",
                static_cast<double>(stats.tasks_stolen()));
}

}  // namespace

Pairs random_pairs(Rng& rng, std::size_t num_events, std::size_t count) {
  count = std::min(count, num_events * (num_events - 1));
  std::set<std::pair<EventId, EventId>> seen;
  Pairs pairs;
  while (pairs.size() < count) {
    const auto a = static_cast<EventId>(rng.below(num_events));
    const auto b = static_cast<EventId>(rng.below(num_events));
    if (a != b && seen.insert({a, b}).second) pairs.emplace_back(a, b);
  }
  return pairs;
}

std::vector<QueryBudget> anytime_ladder() {
  std::vector<QueryBudget> ladder =
      deadline_ladder(static_cast<double>(kDeadlineMs) / 1000.0);
  const std::uint64_t share = daemon_options().cache_budget_bytes;
  for (QueryBudget& rung : ladder) {
    // The same clamp the daemon puts on a deadline query's rungs.
    if (rung.max_memory_bytes == 0 || rung.max_memory_bytes > share) {
      rung.max_memory_bytes = share;
    }
  }
  return ladder;
}

Trace probe_trace(LayerLedger& ledger, std::uint64_t op,
                  const std::string& text) {
  Scope parse(&ledger.spans, "trace.parse", op);
  Trace trace = parse_trace_string(text);
  ledger.sample("trace.parse_us", parse.end());
  ledger.sample("trace.parse_events", static_cast<double>(trace.num_events()));
  ledger.sample("trace.text_bytes", static_cast<double>(text.size()));
  Scope fingerprint(&ledger.spans, "trace.fingerprint", op);
  static_cast<void>(trace.fingerprint());
  ledger.sample("trace.fingerprint_us", fingerprint.end());
  return trace;
}

std::shared_ptr<const Trace> replay_register(LayerLedger& ledger,
                                             std::uint64_t op,
                                             service::TraceRegistry& registry,
                                             const std::string& text,
                                             double& us) {
  Scope whole(nullptr, "", op);
  Trace trace = probe_trace(ledger, op, text);
  Scope span(&ledger.spans, "service.register", op);
  std::shared_ptr<const Trace> canonical =
      registry.register_trace(std::move(trace));
  span.end();
  us = whole.end();
  return canonical;
}

std::shared_ptr<service::AnalysisSession> replay_session(
    LayerLedger& ledger, std::uint64_t op, service::TraceRegistry& registry,
    const std::shared_ptr<const Trace>& trace) {
  const std::size_t before = registry.num_sessions();
  Scope span(&ledger.spans, "service.session", op);
  std::shared_ptr<service::AnalysisSession> session =
      registry.session(trace, exact_options());
  const double us = span.end();
  if (registry.num_sessions() != before) {
    ledger.sample("service.session_create_us", us);
  }
  return session;
}

double replay_session_call(LayerLedger& ledger, std::uint64_t op,
                         const std::string& name,
                         service::AnalysisSession& session,
                         std::optional<double> rt_us,
                         const std::function<void()>& call) {
  const service::SessionStats before = session.stats();
  const std::uint64_t evictions = session.cache()->stats().evictions;
  Scope span(&ledger.spans, name, op);
  call();
  const double us = span.end();
  const service::SessionStats after = session.stats();
  const bool hit = after.computations == before.computations;
  ledger.sample("service.lookups", 1.0);
  ledger.sample("service.hits", hit ? 1.0 : 0.0);
  ledger.sample("service.sweeps",
                static_cast<double>(after.sweeps - before.sweeps));
  ledger.sample("service.evictions",
                static_cast<double>(session.cache()->stats().evictions -
                                    evictions));
  if (hit) ledger.sample("service.warm_lookup_us", us);
  if (rt_us) note_request(ledger, *rt_us, us);
  return us;
}

bool register_input(daemon::DaemonClient& client, const Input& input,
                    std::size_t i, LayerLedger* ledger, Mirror* mirror) {
  Scope rt(nullptr, "", 0);
  const daemon::TraceReply reply = client.register_trace(input.text);
  const double rt_us = rt.end();
  if (ledger != nullptr) {
    std::lock_guard<std::mutex> lock(ledger->replay_mu);
    const std::uint64_t op = ledger->next_op();
    Scope root(&ledger->spans, "setup", op);
    double us = 0.0;
    const auto trace =
        replay_register(*ledger, op, mirror->registry, input.text, us);
    ledger->sample("daemon.register_overhead_us", rt_us - us);
    mirror->sessions[i] = replay_session(*ledger, op, mirror->registry, trace);
  }
  return reply.ok() && reply.fingerprint == input.fingerprint;
}

void probe_warm_lookup(LayerLedger& ledger, std::uint64_t op,
                       const std::function<void()>& call) {
  Scope span(&ledger.spans, "service.warm_lookup", op);
  call();
  ledger.sample("service.warm_lookup_us", span.end());
}

void note_request(LayerLedger& ledger, double rt_us, double inproc_us) {
  ledger.sample("daemon.rt_us", rt_us);
  ledger.sample("daemon.inproc_us", inproc_us);
  ledger.sample("daemon.overhead_us", rt_us - inproc_us);
}

void sample_floor(LayerLedger& ledger, const std::function<bool()>& repeat) {
  Scope span(nullptr, "", 0);
  if (repeat()) ledger.sample("daemon.floor_us", span.end());
}

EngineTimes probe_engines(LayerLedger& ledger, std::uint64_t op,
                          const Trace& trace, const ExactOptions& options) {
  EngineTimes times;
  {
    Scope span(&ledger.spans, "ordering.exact_causal", op);
    const OrderingRelations rel =
        compute_exact(trace, Semantics::kCausal, options);
    const double us = times.causal_us = span.end();
    ledger.sample("ordering.exact_causal_ms", us / 1e3);
    ledger.sample("ordering.causal_classes",
                  static_cast<double>(rel.causal_classes));
    note_search(ledger, rel.search, us);
  }
  {
    Scope span(&ledger.spans, "ordering.exact_interleaving", op);
    const OrderingRelations rel =
        compute_exact(trace, Semantics::kInterleaving, options);
    const double us = times.interleaving_us = span.end();
    ledger.sample("ordering.exact_interleaving_ms", us / 1e3);
    note_search(ledger, rel.search, us);
  }
  {
    Scope span(&ledger.spans, "race.exact", op);
    const RaceReport report = detect_races_exact(trace, options);
    const double us = times.races_us = span.end();
    ledger.sample("race.exact_ms", us / 1e3);
    ledger.sample("race.candidate_pairs",
                  static_cast<double>(report.candidate_pairs));
    note_search(ledger, report.search, us);
  }
  {
    DeadlockOptions deadlock = deadlock_options();
    deadlock.max_states = options.max_states;
    deadlock.time_budget_seconds = options.time_budget_seconds;
    deadlock.max_memory_bytes = options.max_memory_bytes;
    Scope span(&ledger.spans, "feasible.deadlock", op);
    const DeadlockReport report = analyze_deadlocks(trace, deadlock);
    const double us = times.deadlock_us = span.end();
    ledger.sample("feasible.deadlock_ms", us / 1e3);
    note_search(ledger, report.search, us);
  }
  return times;
}

void probe_approx(LayerLedger& ledger, std::uint64_t op, const Trace& trace) {
  {
    Scope span(&ledger.spans, "approx.combined", op);
    static_cast<void>(compute_combined(trace));
    ledger.sample("approx.combined_us", span.end());
  }
  Scope span(&ledger.spans, "approx.vector_clock", op);
  static_cast<void>(compute_vector_clocks(trace));
  ledger.sample("approx.vector_clock_us", span.end());
}

void probe_sat(LayerLedger& ledger, std::uint64_t op, const Trace& trace,
               const Pairs& pairs) {
  SatOracleOptions options;
  options.max_conflicts = kMaxConflicts;
  Scope encode(&ledger.spans, "sat.encode", op);
  SatOracle oracle(trace, options);
  oracle.feasible();
  ledger.sample("sat.encode_ms", encode.end() / 1e3);
  ledger.sample("sat.clauses",
                static_cast<double>(oracle.stats().encode_clauses));
  for (const auto& [a, b] : pairs) {
    const std::uint64_t conflicts = oracle.stats().solver.conflicts;
    Scope query(&ledger.spans, "sat.query", op);
    const OracleVerdict v =
        oracle.query(RelationKind::kMHB, a, b, Semantics::kCausal);
    ledger.sample("sat.query_us", query.end());
    ledger.sample("sat.queries", 1.0);
    ledger.sample("sat.decided", v == OracleVerdict::kUnknown ? 0.0 : 1.0);
    ledger.sample("sat.conflicts", static_cast<double>(
                                       oracle.stats().solver.conflicts -
                                       conflicts));
  }
}

void note_verdict(LayerLedger& ledger, const BoundedVerdict& verdict,
                  double ms, bool first) {
  ledger.sample(first ? "resilience.first_query_ms"
                      : "resilience.followup_query_ms",
                ms);
  if (first) {
    ledger.sample("resilience.rungs_tried",
                  static_cast<double>(verdict.provenance.rungs_tried));
  }
  ledger.sample("resilience.queries", 1.0);
  ledger.sample("resilience.engine." + verdict.provenance.engine, 1.0);
}

void ProbeSampler::offer(LayerLedger& ledger, std::uint64_t op,
                         std::size_t index, const Input& input, Rng& rng) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (probed_.size() == kTraces || !probed_.insert(index).second) return;
  }
  Scope root(&ledger.spans, "probe", op);
  const Pairs pairs = random_pairs(rng, input.num_events, 8);
  const Trace trace = probe_trace(ledger, op, input.text);
  probe_engines(ledger, op, trace, exact_options());
  probe_approx(ledger, op, trace);
  probe_sat(ledger, op, trace, pairs);
  probe_anytime(ledger, op, trace, pairs);
}

void probe_anytime(LayerLedger& ledger, std::uint64_t op, const Trace& trace,
                   const Pairs& pairs) {
  AnytimeOptions options;
  options.ladder = anytime_ladder();
  options.exact = exact_options();
  AnytimeQuery query(trace, options);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Scope span(&ledger.spans, "resilience.anytime", op);
    const BoundedVerdict v =
        i % 2 == 0 ? query.must_have_happened_before(
                         pairs[i].first, pairs[i].second, Semantics::kCausal)
                   : query.could_have_been_concurrent(pairs[i].first,
                                                      pairs[i].second);
    note_verdict(ledger, v, span.end() / 1e3, i == 0);
  }
}

Phases run_phases(const Config& cfg, RunResult& result, std::size_t workers,
                  std::size_t warmup_ops, LayerLedger& ledger,
                  const PhaseOpFn& op, const std::function<void()>& resetup) {
  const auto untraced = [&](std::size_t w) { return op(w, nullptr); };
  Phases phases;
  if (warmup_ops != 0) {
    LoopResult warmup =
        closed_loop(workers, cfg.seconds, untraced, cfg.items(warmup_ops));
    account(result, "warm-up", warmup);
  }
  phases.heap_mb = heap_mb();
  if (!cfg.trace) {
    LoopResult measured;
    for (std::size_t k = 0; k < kRounds; ++k) {
      if (k > 0) resetup();
      const CpuTimes before = cpu_times();
      phases.rounds.push_back(
          closed_loop(workers, cfg.seconds / kRounds, untraced));
      phases.rounds.back().steal_share = steal_share(before, cpu_times());
      measured.merge(phases.rounds.back());
    }
    account(result, "measure", measured);
    return phases;
  }
  phases.plain = closed_loop(workers, cfg.seconds / 2, untraced);
  account(result, "untraced", phases.plain);
  phases.traced = closed_loop(workers, cfg.seconds / 2, [&](std::size_t w) {
    return op(w, &ledger);
  });
  account(result, "traced", phases.traced);
  return phases;
}

void finish_layers(const Config& cfg, RunResult& result, LayerLedger& ledger,
                   Phases& phases) {
  const double ops = static_cast<double>(phases.traced.attempted);
  const double plain = phases.plain.latency.median();
  const double trace_overhead =
      plain == 0.0 ? 0.0 : phases.traced.latency.median() / plain;
  const double op_us = phases.traced.latency.sum() * 1e3;
  // The replays plus one request floor per request, over the time the
  // traced ops took.
  const double coverage =
      op_us == 0.0 ? 0.0
                   : (ledger.spans.total_us("replay") +
                      static_cast<double>(phases.traced.requests) *
                          ledger.median("daemon.floor_us")) /
                         op_us;
  const auto per_op = [&](const std::string& key) {
    return ops == 0.0 ? 0.0 : ledger.sum(key) / ops;
  };
  const auto m = [&](const std::string& name, double value,
                     const std::string& unit) {
    result.add(name, value, unit);
  };
  m("daemon.roundtrip_us", ledger.median("daemon.rt_us"), "us");
  m("daemon.overhead_us", ledger.median("daemon.overhead_us"), "us");
  m("daemon.overhead_ratio", ledger.ratio("daemon.rt_us", "daemon.inproc_us"),
    "ratio");
  m("daemon.register_overhead_us",
    ledger.median("daemon.register_overhead_us"), "us");
  m("daemon.floor_us", ledger.median("daemon.floor_us"), "us");
  m("trace.parse_us_per_event",
    ledger.ratio("trace.parse_us", "trace.parse_events"), "us");
  m("trace.fingerprint_us", ledger.median("trace.fingerprint_us"), "us");
  m("trace.text_bytes", ledger.median("trace.text_bytes"), "bytes");
  m("service.warm_lookup_us", ledger.median("service.warm_lookup_us"), "us");
  m("service.hit_ratio", ledger.ratio("service.hits", "service.lookups"),
    "ratio");
  m("service.evictions_per_op", per_op("service.evictions"), "count");
  m("service.sweeps_per_op", per_op("service.sweeps"), "count");
  m("service.session_create_us", ledger.median("service.session_create_us"),
    "us");
  m("ordering.exact_causal_ms", ledger.median("ordering.exact_causal_ms"),
    "ms");
  m("ordering.exact_interleaving_ms",
    ledger.median("ordering.exact_interleaving_ms"), "ms");
  m("ordering.causal_classes", ledger.median("ordering.causal_classes"),
    "count");
  m("search.states", ledger.median("search.states"), "count");
  m("search.states_per_s", ledger.ratio("search.states", "search.seconds"),
    "1/s");
  m("search.bytes_per_state",
    ledger.ratio("search.memo_bytes", "search.states"), "bytes");
  m("search.idle_fraction", ledger.ratio("search.idle_ns", "search.worker_ns"),
    "ratio");
  m("search.tasks_stolen", mean_of(ledger.samples("search.tasks_stolen")),
    "count");
  m("feasible.deadlock_ms", ledger.median("feasible.deadlock_ms"), "ms");
  m("race.exact_ms", ledger.median("race.exact_ms"), "ms");
  m("race.candidate_pairs", ledger.median("race.candidate_pairs"), "count");
  m("resilience.first_query_ms", ledger.median("resilience.first_query_ms"),
    "ms");
  m("resilience.followup_query_ms",
    ledger.median("resilience.followup_query_ms"), "ms");
  m("resilience.rungs_tried", mean_of(ledger.samples("resilience.rungs_tried")),
    "count");
  m("resilience.late_share", mean_of(ledger.samples("resilience.late")),
    "ratio");
  for (const char* engine : kEngines) {
    m(std::string("resilience.engine_share.") + engine,
      ledger.ratio(std::string("resilience.engine.") + engine,
                   "resilience.queries"),
      "ratio");
  }
  m("sat.encode_ms", ledger.median("sat.encode_ms"), "ms");
  m("sat.clauses", ledger.median("sat.clauses"), "count");
  m("sat.query_us", ledger.median("sat.query_us"), "us");
  m("sat.conflicts_per_query", ledger.ratio("sat.conflicts", "sat.queries"),
    "count");
  m("sat.decided_share", ledger.ratio("sat.decided", "sat.queries"), "ratio");
  m("approx.combined_us", ledger.median("approx.combined_us"), "us");
  m("approx.vector_clock_us", ledger.median("approx.vector_clock_us"), "us");
  m("trace_overhead", trace_overhead, "ratio");
  m("coverage", coverage, "ratio");

  std::fprintf(stderr, "  self time per traced op (spans: %zu):\n",
               ledger.spans.size());
  const double daemon_us =
      ledger.sum("daemon.rt_us") - ledger.sum("daemon.inproc_us");
  std::fprintf(stderr, "    %-12s %12.2f us  (round trip - in-process)\n",
               "daemon", ops == 0.0 ? 0.0 : daemon_us / ops);
  for (const auto& [layer, us] : ledger.spans.self_us_by_layer("replay")) {
    std::fprintf(stderr, "    %-12s %12.2f us\n", layer.c_str(),
                 ops == 0.0 ? 0.0 : us / ops);
  }
  std::fprintf(stderr, "  coverage %.4f, trace overhead %.4f\n", coverage,
               trace_overhead);
  if (!cfg.spans_path.empty() && !ledger.spans.write(cfg.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 cfg.spans_path.c_str());
    result.correct = false;
  }
}

}  // namespace evord::bench_e2e
