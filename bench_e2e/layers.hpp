// The traced run's per-layer ledger.  Each probe calls one layer's
// public entry points on a workload input, wraps every call in a span
// (a child of whatever span the caller has open, so a probe inside a
// "replay" span counts towards coverage and one inside a "probe" span
// does not) and records the layer's own numbers: times, counts and the
// search/solver statistics the results carry.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "resilience/anytime.hpp"
#include "service/registry.hpp"
#include "spans.hpp"

namespace evord::bench_e2e {

class LayerLedger {
 public:
  SpanRecorder spans;
  /// Held around every replay: replays read the mirror's statistics
  /// before and after each call, so two must never overlap.
  std::mutex replay_mu;

  std::uint64_t next_op() { return next_op_.fetch_add(1); }

  void sample(const std::string& key, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[key].push_back(value);
  }
  std::vector<double> samples(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = samples_.find(key);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }
  double sum(const std::string& key) const { return sum_of(samples(key)); }
  double median(const std::string& key) const {
    return median_of(samples(key));
  }
  /// sum(num) / sum(den); 0 when the denominator is 0.
  double ratio(const std::string& num, const std::string& den) const {
    const double d = sum(den);
    return d == 0.0 ? 0.0 : sum(num) / d;
  }

 private:
  std::atomic<std::uint64_t> next_op_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

using Pairs = std::vector<std::pair<EventId, EventId>>;

/// The per-layer run's in-process copy of the daemon's tenant: a registry
/// with the same cache budget, and the session of input i at sessions[i].
struct Mirror {
  explicit Mirror(std::uint64_t budget_bytes = daemon_options().cache_budget_bytes)
      : registry(nullptr, budget_bytes) {}
  service::TraceRegistry registry;
  std::vector<std::shared_ptr<service::AnalysisSession>> sessions;
};

/// Registers input `i` through `client`; false when the reply is not the
/// input's fingerprint.  With a ledger the registration is replayed into
/// the mirror as well (recording the daemon's registration overhead), and
/// mirror->sessions[i] is created.
bool register_input(daemon::DaemonClient& client, const Input& input,
                    std::size_t i, LayerLedger* ledger, Mirror* mirror);

/// `count` distinct ordered pairs of distinct events.
Pairs random_pairs(Rng& rng, std::size_t num_events, std::size_t count);

/// The client deadline of an anytime query.
inline constexpr std::uint32_t kDeadlineMs = 50;
/// Conflict budget of the SAT-oracle calls the benchmark makes itself
/// (probes and answer checks).
inline constexpr std::uint64_t kMaxConflicts = std::uint64_t{1} << 14;
/// The ladder the daemon derives for a kDeadlineMs deadline when one
/// tenant is connected: resilience::deadline_ladder with each rung's
/// memory clamped to the tenant's cache share.  In-process replays and
/// probes of anytime queries run under it.
std::vector<QueryBudget> anytime_ladder();

/// trace: parse `text` and fingerprint the result.
Trace probe_trace(LayerLedger& ledger, std::uint64_t op,
                  const std::string& text);
/// The in-process half of a kRegisterTrace request: probe_trace plus
/// TraceRegistry::register_trace.  Returns the canonical entry and sets
/// `us` to the time taken.
std::shared_ptr<const Trace> replay_register(LayerLedger& ledger,
                                             std::uint64_t op,
                                             service::TraceRegistry& registry,
                                             const std::string& text,
                                             double& us);
/// service: TraceRegistry::session (created or found), timed as
/// service.session_create_us when it had to be created.
std::shared_ptr<service::AnalysisSession> replay_session(
    LayerLedger& ledger, std::uint64_t op, service::TraceRegistry& registry,
    const std::shared_ptr<const Trace>& trace);
/// Times `call` on `session` as one replayed request (span `name`) and
/// records whether the result cache answered it, plus the sweeps and
/// evictions it caused.  With `rt_us`, the daemon round trip of the same
/// request, it also records the daemon's overhead over the call.
/// Returns the call's time in µs.  Requires replay_mu.
double replay_session_call(LayerLedger& ledger, std::uint64_t op,
                         const std::string& name,
                         service::AnalysisSession& session,
                         std::optional<double> rt_us,
                         const std::function<void()>& call);
/// service: times `call`, a repeat the result cache answers, as one warm
/// lookup (outside the hit-ratio accounting).
void probe_warm_lookup(LayerLedger& ledger, std::uint64_t op,
                       const std::function<void()>& call);
/// Records one request's round trip against its in-process replay.
void note_request(LayerLedger& ledger, double rt_us, double inproc_us);
/// daemon: times `repeat`, an immediate repeat of the op's last request,
/// which the result cache answers: framing, admission, the executor hop
/// and a lookup, the per-request floor the coverage uses.
void sample_floor(LayerLedger& ledger, const std::function<bool()>& repeat);
/// In-process times of probe_engines' calls, in µs.
struct EngineTimes {
  double causal_us = 0.0;
  double interleaving_us = 0.0;
  double races_us = 0.0;
  double deadlock_us = 0.0;
};
/// ordering + search + race + feasible: exact causal and interleaving
/// relations, exact races and deadlocks under `options` (budgets in
/// `options` bound every call).
EngineTimes probe_engines(LayerLedger& ledger, std::uint64_t op,
                          const Trace& trace, const ExactOptions& options);
/// approx: the combined fixpoint and the observed vector clocks.
void probe_approx(LayerLedger& ledger, std::uint64_t op, const Trace& trace);
/// sat: one oracle build plus a must-have-happened-before query per pair,
/// each within kMaxConflicts.
void probe_sat(LayerLedger& ledger, std::uint64_t op, const Trace& trace,
               const Pairs& pairs);
/// resilience: anytime queries under the daemon's 50 ms deadline ladder,
/// alternating must-have-happened-before and could-have-been-concurrent.
void probe_anytime(LayerLedger& ledger, std::uint64_t op, const Trace& trace,
                   const Pairs& pairs);
/// Runs every probe above (engines unbudgeted) on the first kTraces
/// distinct traces it is offered, under a "probe" span.
class ProbeSampler {
 public:
  static constexpr std::size_t kTraces = 32;
  void offer(LayerLedger& ledger, std::uint64_t op, std::size_t index,
             const Input& input, Rng& rng);

 private:
  std::mutex mu_;
  std::set<std::size_t> probed_;
};
/// Records one anytime verdict (resilience.* samples).
void note_verdict(LayerLedger& ledger, const BoundedVerdict& verdict,
                  double ms, bool first);

/// One op of a workload; `ledger` is non-null only in the traced half of
/// a per-layer run.
using PhaseOpFn = std::function<std::optional<OpResult>(std::size_t worker,
                                                        LayerLedger* ledger)>;

struct Phases {
  /// Live heap (MiB) after set-up and warm-up: a fixed amount of work,
  /// so the reading does not change when the code gets faster.
  double heap_mb = 0.0;
  std::vector<LoopResult> rounds;  ///< end-to-end run: the measured rounds
  LoopResult plain;   ///< per-layer run: the untraced half
  LoopResult traced;  ///< per-layer run: the traced half
};

/// A warm-up of `warmup_ops` untimed ops (caches fill, lazy set-up
/// finishes), then the measured phase (end-to-end run) or an untraced
/// and a traced half of --seconds each (per-layer run).  The measured
/// phase is kRounds rounds; before each round after the first it calls
/// `resetup`, which times one more set-up and drops it, so the set-up
/// times are sampled across the run as the rounds are, not at one moment
/// of it.  Every phase's ops count into `result`.
Phases run_phases(const Config& cfg, RunResult& result, std::size_t workers,
                  std::size_t warmup_ops, LayerLedger& ledger,
                  const PhaseOpFn& op, const std::function<void()>& resetup);

/// Appends every per-layer metric (BENCHMARK.json order), among them the
/// coverage (how much of the traced ops' time the replays plus one
/// transport floor per request explain) and the trace overhead; prints
/// the self-time table and writes the spans when the config asks.
void finish_layers(const Config& cfg, RunResult& result, LayerLedger& ledger,
                   Phases& phases);

}  // namespace evord::bench_e2e
