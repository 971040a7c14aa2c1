// Shared machinery of the end-to-end benchmark: run configuration, the
// result record, an in-process daemon on a Unix socket, closed client
// loops, seeded trace generators and the in-process reference
// answers the daemon's replies are checked against.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "feasible/deadlock.hpp"
#include "ordering/exact.hpp"
#include "stats.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace evord::bench_e2e {

/// Rounds of the end-to-end measured phase.  Throughput and latency are
/// reported over the faster half of them, so outside load that slows
/// some rounds does not move them.
inline constexpr std::size_t kRounds = 10;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;  ///< short run: every check on, timings meaningless
  std::string spans_path;  ///< where the traced run writes its spans

  /// A workload's item count, cut to 1/20 for --smoke.
  std::size_t items(std::size_t full) const {
    return smoke ? (full + 19) / 20 : full;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Every workload analyses under this configuration, in the daemon and
/// in the in-process reference alike.  Two search workers, two executor
/// workers and at most two client connections keep a run within 4 cores.
ExactOptions exact_options();
daemon::DaemonOptions daemon_options();
/// The deadlock configuration an AnalysisSession derives from
/// exact_options().
DeadlockOptions deadlock_options();

/// An in-process daemon listening on a fresh socket in the working
/// directory (a relative path keeps it under the sun_path limit however
/// deep the checkout is).  Stops and unlinks on destruction.
class DaemonFixture {
 public:
  explicit DaemonFixture(daemon::DaemonOptions options);
  ~DaemonFixture();
  DaemonFixture(const DaemonFixture&) = delete;
  DaemonFixture& operator=(const DaemonFixture&) = delete;

  /// Connected clients (one per closed-loop connection); a transport
  /// failure is never retried, so it surfaces as a failed op.
  std::vector<std::unique_ptr<daemon::DaemonClient>> connect(
      std::size_t count, std::uint64_t seed) const;

 private:
  std::string path_;
  std::unique_ptr<daemon::Daemon> daemon_;
};

/// One op as a workload reports it: latency covers the daemon requests
/// only (checks and traced replays run after the clock stops).
struct OpResult {
  double latency_ms = 0.0;
  bool ok = true;
  std::uint32_t requests = 1;
  /// The answer is exact-complete or a proven/refuted verdict.
  bool definitive = true;
  /// The op carried a deadline and its reply came after it.
  bool late = false;
};

struct LoopResult {
  LatencyRecorder latency;  ///< ms per completed op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  std::uint64_t definitive = 0;  ///< completed ops with a definitive answer
  std::uint64_t late = 0;        ///< completed ops that missed a deadline
  double wall_seconds = 0.0;
  /// Share of the machine's CPU time stolen by the hypervisor while the
  /// loop ran (set by run_phases for each measured round; reported, not
  /// used by any metric).
  double steal_share = 0.0;

  void merge(const LoopResult& other);
};

/// Closed loop: worker i calls op(i) back to back until `seconds` have
/// passed, `max_ops` ops have started (0 = no limit) or op returns
/// nullopt (its input is used up).
using OpFn = std::function<std::optional<OpResult>(std::size_t worker)>;
LoopResult closed_loop(std::size_t workers, double seconds, const OpFn& op,
                       std::size_t max_ops = 0);

/// Runs fn(i) for i in [0, count) on `threads` threads.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// A generated input: the text the daemon receives, the fingerprint it
/// must answer with, and the event count.  Only the text is kept, so a
/// pool of inputs costs the benchmark little memory.
struct Input {
  std::string text;
  std::uint64_t fingerprint = 0;
  std::size_t num_events = 0;

  /// The trace again, for checks and in-process replays.
  std::shared_ptr<const Trace> parse() const;
};
Input make_input(const Trace& trace);

Trace semaphore_trace(Rng& rng, std::size_t lo, std::size_t hi,
                      std::size_t procs);
Trace event_trace(Rng& rng, std::size_t lo, std::size_t hi,
                  std::size_t procs);
Trace fork_join_trace(Rng& rng, std::size_t children, std::size_t lo,
                      std::size_t hi);

/// The answers the daemon must give for one trace, computed in-process
/// by calling the engines directly (no service layer, no cache).
struct Reference {
  std::size_t n = 0;
  /// bits[semantics][relation * n * n + a * n + b]; empty = not computed.
  std::array<std::vector<std::uint8_t>, 3> bits;
  std::vector<daemon::RaceInfo> races;
  std::uint32_t candidate_pairs = 0;
  bool can_deadlock = false;

  bool holds(std::uint8_t semantics, std::uint8_t relation, std::uint32_t a,
             std::uint32_t b) const {
    return bits[semantics][(relation * n + a) * n + b] != 0;
  }
  bool races_match(const daemon::RaceReply& reply) const;
};
Reference make_reference(const Trace& trace,
                         const std::vector<Semantics>& semantics, bool races,
                         bool deadlock);

/// A random pair question about two distinct events of an n-event trace;
/// semantics drawn at random unless given.
daemon::PairQuerySpec random_spec(Rng& rng, std::size_t n,
                                  std::optional<Semantics> semantics = {});
/// The in-process form of a wire pair question.
service::PairQuery to_query(const daemon::PairQuerySpec& spec);
/// True iff `values` answers `specs` as `ref` does.
bool answers_match(const Reference& ref,
                   const std::vector<daemon::PairQuerySpec>& specs,
                   const std::vector<bool>& values);

/// Heap this process has allocated and not freed, in MiB (glibc's
/// in-use chunks plus mmapped blocks).  Unlike the resident set it does
/// not count free memory the allocator keeps, which varies by several
/// MiB from run to run with how threads happened to interleave.  The
/// daemon's share is a difference: a reading taken after the benchmark's
/// own inputs and references exist and before the daemon starts, taken
/// away from a later one.
double heap_mb();

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks:
/// `steal` is the time virtual CPUs waited while the hypervisor ran other
/// guests.  Zeros when /proc/stat cannot be read.  On a shared host the
/// steal share is what separates a slow round from a slow machine.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes cpu_times();
/// Steal share of the CPU time between two readings (0 when none passed).
double steal_share(const CpuTimes& from, const CpuTimes& to);

/// Daemon-side bounces since start: sheds + quota rejections + protocol
/// errors + bad requests.  Any of them in a run is a failure.
std::uint64_t daemon_bounces(daemon::DaemonClient& client);

/// Splits a 64-bit stream per (seed, purpose) so workloads, workers and
/// phases draw independent inputs from one --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// Runs make(), appends its wall time to `seconds` and returns its
/// result.
template <class Make>
auto timed_setup(std::vector<double>& seconds, Make make) {
  const auto start = std::chrono::steady_clock::now();
  auto state = make();
  seconds.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  return state;
}

/// The end-to-end metrics every workload reports (BENCHMARK.json order):
/// the median set-up, the throughput and latency of the faster half of
/// `rounds`, the answer shares over every round, and the daemon's heap:
/// `heap`, the live heap read before the measured phase, less
/// `heap_base`, the benchmark's own heap read before the daemon started.
void add_end_to_end(RunResult& result, const std::vector<double>& setups,
                    std::vector<LoopResult>& rounds, double heap_base,
                    double heap);

/// Counts a phase's ops into the result and prints its one-line summary.
void account(RunResult& result, const char* phase, LoopResult& loop);

}  // namespace evord::bench_e2e
