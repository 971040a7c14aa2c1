// warm_query: 256 small semaphore traces are registered and warmed at
// set-up; two connections then ask pair queries (70%), 64-pair batches
// (20%) and exact race queries (10%) about them.  Every answer is a
// cache hit, so the time goes to framing, syscalls, admission and the
// cache lookup: a faster daemon front end shows here, while the engines
// do nothing.
#include <atomic>
#include <stdexcept>

#include "layers.hpp"
#include "workloads.hpp"

namespace evord::bench_e2e {

namespace {

using daemon::DaemonClient;
using daemon::PairQuerySpec;
using Scope = SpanRecorder::Scope;

constexpr std::uint64_t kSalt = 0x3a11;
constexpr std::size_t kTraces = 256;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kWarmupOps = 50'000;

const std::vector<Semantics> kSemantics = {
    Semantics::kInterleaving, Semantics::kCausal, Semantics::kInterval};

std::vector<Input> generate(const Config& cfg) {
  Rng rng(stream_seed(cfg.seed, kSalt));
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < cfg.items(kTraces); ++i) {
    inputs.push_back(make_input(semaphore_trace(rng, 16, 24, 3)));
  }
  return inputs;
}

struct Warm {
  std::vector<Input> inputs;
  double heap_base_mb = 0.0;  ///< before the daemon started
  std::unique_ptr<DaemonFixture> daemon;
  std::vector<std::unique_ptr<DaemonClient>> clients;
};

/// Registers trace i and warms every result the op mix reads: the
/// relations under all three semantics and the exact races.  The mirror,
/// when given, is warmed the same way.
bool warm_trace(DaemonClient& client, const Input& input, std::size_t i,
                LayerLedger* ledger, Mirror* mirror) {
  if (!register_input(client, input, i, ledger, mirror)) return false;
  std::vector<PairQuerySpec> batch;
  for (const Semantics s : kSemantics) {
    batch.push_back({0, static_cast<std::uint8_t>(s), 0, 1});
  }
  if (!client.batch_query(input.fingerprint, batch).ok() ||
      !client.race_query(input.fingerprint, 0).ok()) {
    return false;
  }
  if (mirror != nullptr) {
    std::lock_guard<std::mutex> lock(ledger->replay_mu);
    for (const Semantics s : kSemantics) mirror->sessions[i]->relations(s);
    mirror->sessions[i]->races(RaceDetector::kExact);
  }
  return true;
}

std::unique_ptr<Warm> setup(const Config& cfg, LayerLedger* ledger,
                            Mirror* mirror) {
  auto warm = std::make_unique<Warm>();
  warm->inputs = generate(cfg);
  warm->heap_base_mb = heap_mb();
  warm->daemon = std::make_unique<DaemonFixture>(daemon_options());
  warm->clients = warm->daemon->connect(kConnections, cfg.seed);
  if (mirror != nullptr) mirror->sessions.resize(warm->inputs.size());
  std::atomic<bool> ok{true};
  parallel_for(kConnections, kConnections, [&](std::size_t w) {
    for (std::size_t i = w; i < warm->inputs.size(); i += kConnections) {
      if (!warm_trace(*warm->clients[w], warm->inputs[i], i, ledger,
                      mirror)) {
        ok = false;
      }
    }
  });
  if (!ok) throw std::runtime_error("warm_query: a set-up request failed");
  return warm;
}

}  // namespace

RunResult run_warm_query(const Config& cfg) {
  RunResult result;
  const std::vector<Input> inputs = generate(cfg);
  std::vector<Reference> refs(inputs.size());
  parallel_for(inputs.size(), 2, [&](std::size_t i) {
    refs[i] = make_reference(*inputs[i].parse(), kSemantics, true, false);
  });

  LayerLedger ledger;
  Mirror mirror;
  std::vector<double> setup_seconds;
  const std::unique_ptr<Warm> warm = timed_setup(setup_seconds, [&] {
    return setup(cfg, cfg.trace ? &ledger : nullptr,
                 cfg.trace ? &mirror : nullptr);
  });
  const auto resetup = [&] {
    timed_setup(setup_seconds, [&] { return setup(cfg, nullptr, nullptr); });
  };

  std::vector<Rng> rngs;
  for (std::size_t w = 0; w < kConnections; ++w) {
    rngs.emplace_back(stream_seed(cfg.seed, kSalt, w + 1));
  }
  ProbeSampler probes;

  const auto op = [&](std::size_t w,
                      LayerLedger* traced) -> std::optional<OpResult> {
    Rng& rng = rngs[w];
    DaemonClient& client = *warm->clients[w];
    const std::size_t t = rng.below(warm->inputs.size());
    const Input& input = warm->inputs[t];
    const Reference& ref = refs[t];
    const std::uint64_t roll = rng.below(100);
    const std::uint64_t id = traced != nullptr ? traced->next_op() : 0;
    SpanRecorder* spans = traced != nullptr ? &traced->spans : nullptr;

    OpResult r;
    std::string name;
    std::function<void(service::AnalysisSession&)> replay;
    double rt_us = 0.0;
    {
      Scope op_span(spans, "op", id);
      if (roll < 70) {
        const PairQuerySpec q = random_spec(rng, ref.n);
        Scope req(spans, "daemon.pair_query", id);
        const daemon::BoolReply reply = client.pair_query(input.fingerprint, q);
        rt_us = req.end();
        r.ok = reply.ok() &&
               reply.value == ref.holds(q.semantics, q.relation, q.a, q.b);
        name = "service.pair_query";
        replay = [q](service::AnalysisSession& s) {
          s.pair_query(to_query(q));
        };
      } else if (roll < 90) {
        std::vector<PairQuerySpec> batch;
        for (std::size_t i = 0; i < kBatch; ++i) {
          batch.push_back(random_spec(rng, ref.n));
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
    if (traced != nullptr) {
      {
        std::lock_guard<std::mutex> lock(traced->replay_mu);
        Scope root(spans, "replay", id);
        service::AnalysisSession& session = *mirror.sessions[t];
        replay_session_call(*traced, id, name, session, rt_us,
                            [&] { replay(session); });
      }
      sample_floor(*traced, [&] {
        return client.pair_query(input.fingerprint, {0, 1, 0, 1}).ok();
      });
      probes.offer(*traced, id, t, input, rng);
    }
    return r;
  };

  Phases phases = run_phases(cfg, result, kConnections, kWarmupOps, ledger,
                             op, resetup);
  if (cfg.trace) {
    finish_layers(cfg, result, ledger, phases);
  } else {
    add_end_to_end(result, setup_seconds, phases.rounds, warm->heap_base_mb,
                   phases.heap_mb);
  }
  if (daemon_bounces(*warm->clients[0]) != 0) result.correct = false;
  return result;
}

}  // namespace evord::bench_e2e
