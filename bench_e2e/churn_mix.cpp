// churn_mix: two connections over 512 traces drawn with Zipf(1.0)
// popularity, against a result cache sized to hold about a quarter of
// the working set.  10% of requests re-register a trace (the dedup write
// path), 60% are 32-pair causal batches, 20% interleaving pair queries
// and 10% exact race queries.  It loads the same service layer as
// warm_query, used differently: registration writes sit beside reads and
// evictions force recomputes, so a cache or registry change that helps
// warm_query but costs this mix shows here.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "layers.hpp"
#include "workloads.hpp"

namespace evord::bench_e2e {

namespace {

using daemon::DaemonClient;
using daemon::PairQuerySpec;
using Scope = SpanRecorder::Scope;

constexpr std::uint64_t kSalt = 0xc4c4;
constexpr std::size_t kTraces = 512;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kBatch = 32;
/// The cache holds 1/kCacheShare of the working set's results.
constexpr std::uint64_t kCacheShare = 4;
constexpr std::size_t kWarmupOps = 20'000;

const std::vector<Semantics> kSemantics = {Semantics::kCausal,
                                           Semantics::kInterleaving};

struct Inputs {
  std::vector<Input> traces;
  /// Cumulative Zipf(1.0) weights by popularity rank.
  std::vector<double> cdf;
  /// rank_to_trace[r] = the trace of popularity rank r.
  std::vector<std::size_t> rank_to_trace;

  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform() * cdf.back();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return rank_to_trace[std::min(rank, cdf.size() - 1)];
  }
};

Inputs generate(const Config& cfg) {
  Rng rng(stream_seed(cfg.seed, kSalt));
  Inputs in;
  const std::size_t n = cfg.items(kTraces);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    in.traces.push_back(make_input(semaphore_trace(rng, 16, 22, 3)));
    total += 1.0 / static_cast<double>(i + 1);
    in.cdf.push_back(total);
    in.rank_to_trace.push_back(i);
  }
  rng.shuffle(in.rank_to_trace);
  return in;
}

/// Result-cache bytes of every trace's relations under both semantics
/// and its exact races.  Measured on every trace: where the tail
/// percentiles fall among the recomputes depends on the budget's share
/// of the working set, and an estimate from a sample moved that share by
/// a few percent from seed to seed.
std::uint64_t working_set_bytes(const Inputs& in) {
  service::TraceRegistry registry(nullptr, 0);  // unlimited, still charged
  parallel_for(in.traces.size(), 2, [&](std::size_t i) {
    const auto session = registry.session(in.traces[i].parse(), exact_options());
    for (const Semantics s : kSemantics) session->relations(s);
    session->races(RaceDetector::kExact);
  });
  return registry.cache()->bytes();
}

struct Churn {
  Inputs in;
  double heap_base_mb = 0.0;  ///< before the daemon started
  std::unique_ptr<DaemonFixture> daemon;
  std::vector<std::unique_ptr<DaemonClient>> clients;
};

/// Registers every trace, then reads each one's causal relations from
/// the least to the most popular, leaving the cache full and holding the
/// popular end.  The mirror, when given, goes through the same steps.
std::unique_ptr<Churn> setup(const Config& cfg, std::uint64_t budget,
                             LayerLedger* ledger, Mirror* mirror) {
  auto churn = std::make_unique<Churn>();
  churn->in = generate(cfg);
  churn->heap_base_mb = heap_mb();
  daemon::DaemonOptions options = daemon_options();
  options.cache_budget_bytes = budget;
  churn->daemon = std::make_unique<DaemonFixture>(options);
  churn->clients = churn->daemon->connect(kConnections, cfg.seed);
  const std::vector<Input>& traces = churn->in.traces;
  if (mirror != nullptr) mirror->sessions.resize(traces.size());
  std::atomic<bool> ok{true};
  parallel_for(kConnections, kConnections, [&](std::size_t w) {
    for (std::size_t i = w; i < traces.size(); i += kConnections) {
      if (!register_input(*churn->clients[w], traces[i], i, ledger, mirror)) {
        ok = false;
      }
    }
  });
  parallel_for(kConnections, kConnections, [&](std::size_t w) {
    for (std::size_t k = w; k < traces.size(); k += kConnections) {
      const std::size_t t = churn->in.rank_to_trace[traces.size() - 1 - k];
      const std::vector<PairQuerySpec> one = {{0, 1, 0, 1}};
      if (!churn->clients[w]->batch_query(traces[t].fingerprint, one).ok()) {
        ok = false;
      }
      if (mirror != nullptr) {
        std::lock_guard<std::mutex> lock(ledger->replay_mu);
        mirror->sessions[t]->relations(Semantics::kCausal);
      }
    }
  });
  if (!ok) throw std::runtime_error("churn_mix: a set-up request failed");
  return churn;
}

}  // namespace

RunResult run_churn_mix(const Config& cfg) {
  RunResult result;
  const Inputs inputs = generate(cfg);
  std::vector<Reference> refs(inputs.traces.size());
  parallel_for(refs.size(), 2, [&](std::size_t i) {
    refs[i] =
        make_reference(*inputs.traces[i].parse(), kSemantics, true, false);
  });
  const std::uint64_t budget = working_set_bytes(inputs) / kCacheShare;
  std::fprintf(stderr, "  cache budget %llu bytes\n",
               static_cast<unsigned long long>(budget));

  LayerLedger ledger;
  Mirror mirror(budget);
  std::vector<double> setup_seconds;
  const std::unique_ptr<Churn> churn = timed_setup(setup_seconds, [&] {
    return setup(cfg, budget, cfg.trace ? &ledger : nullptr,
                 cfg.trace ? &mirror : nullptr);
  });
  const auto resetup = [&] {
    timed_setup(setup_seconds,
                [&] { return setup(cfg, budget, nullptr, nullptr); });
  };

  std::vector<Rng> rngs;
  for (std::size_t w = 0; w < kConnections; ++w) {
    rngs.emplace_back(stream_seed(cfg.seed, kSalt, w + 1));
  }
  ProbeSampler probes;

  const auto op = [&](std::size_t w,
                      LayerLedger* traced) -> std::optional<OpResult> {
    Rng& rng = rngs[w];
    DaemonClient& client = *churn->clients[w];
    const std::size_t t = churn->in.draw(rng);
    const Input& input = churn->in.traces[t];
    const Reference& ref = refs[t];
    const std::uint64_t roll = rng.below(100);
    const std::uint64_t id = traced != nullptr ? traced->next_op() : 0;
    SpanRecorder* spans = traced != nullptr ? &traced->spans : nullptr;

    OpResult r;
    double rt_us = 0.0;
    std::string name;
    std::function<void(service::AnalysisSession&)> replay;
    {
      Scope op_span(spans, "op", id);
      if (roll < 10) {
        Scope req(spans, "daemon.register_trace", id);
        const daemon::TraceReply reply = client.register_trace(input.text);
        rt_us = req.end();
        r.ok = reply.ok() && reply.dedup &&
               reply.fingerprint == input.fingerprint;
      } else if (roll < 70) {
        std::vector<PairQuerySpec> batch;
        for (std::size_t i = 0; i < kBatch; ++i) {
          batch.push_back(random_spec(rng, ref.n, Semantics::kCausal));
        }
        Scope req(spans, "daemon.batch_query", id);
        const daemon::BatchReply reply =
            client.batch_query(input.fingerprint, batch);
        rt_us = req.end();
        r.ok = reply.ok() && answers_match(ref, batch, reply.values);
        name = "service.query_batch";
        if (traced != nullptr) {
          replay = [batch](service::AnalysisSession& s) {
            std::vector<service::PairQuery> queries;
            for (const PairQuerySpec& q : batch) {
              queries.push_back(to_query(q));
            }
            s.query_batch(queries);
          };
        }
      } else if (roll < 90) {
        const PairQuerySpec q =
            random_spec(rng, ref.n, Semantics::kInterleaving);
        Scope req(spans, "daemon.pair_query", id);
        const daemon::BoolReply reply = client.pair_query(input.fingerprint, q);
        rt_us = req.end();
        r.ok = reply.ok() &&
               reply.value == ref.holds(q.semantics, q.relation, q.a, q.b);
        name = "service.pair_query";
        replay = [q](service::AnalysisSession& s) {
          s.pair_query(to_query(q));
        };
      } else {
        Scope req(spans, "daemon.race_query", id);
        const daemon::RaceReply reply = client.race_query(input.fingerprint, 0);
        rt_us = req.end();
        r.ok = reply.ok() && ref.races_match(reply);
        name = "service.races";
        replay = [](service::AnalysisSession& s) {
          s.races(RaceDetector::kExact);
        };
      }
    }
    r.latency_ms = rt_us / 1e3;
    if (traced == nullptr) return r;

    {
      std::lock_guard<std::mutex> lock(traced->replay_mu);
      Scope root(spans, "replay", id);
      if (replay) {
        service::AnalysisSession& session = *mirror.sessions[t];
        replay_session_call(*traced, id, name, session, rt_us,
                            [&] { replay(session); });
      } else {
        double us = 0.0;
        replay_register(*traced, id, mirror.registry, input.text, us);
        note_request(*traced, rt_us, us);
        traced->sample("daemon.register_overhead_us", rt_us - us);
      }
    }
    if (replay) {
      // Relations every trace keeps the longest: its causal ones.
      sample_floor(*traced, [&] {
        return client.pair_query(input.fingerprint, {0, 1, 0, 1}).ok();
      });
    }
    probes.offer(*traced, id, t, input, rng);
    return r;
  };

  Phases phases = run_phases(cfg, result, kConnections, kWarmupOps, ledger,
                             op, resetup);
  if (cfg.trace) {
    finish_layers(cfg, result, ledger, phases);
  } else {
    add_end_to_end(result, setup_seconds, phases.rounds, churn->heap_base_mb,
                   phases.heap_mb);
  }
  if (daemon_bounces(*churn->clients[0]) != 0) result.correct = false;
  return result;
}

}  // namespace evord::bench_e2e
