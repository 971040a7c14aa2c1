#include "feasible/deadlock.hpp"

#include <memory>
#include <mutex>
#include <optional>

#include "search/engine.hpp"

namespace evord {

namespace {

/// One witness candidate with its canonical DFS key.  The serial search
/// reports the first stuck prefix of minimal length it finds; because
/// DFS visits states in lexicographic dewey order, that is exactly the
/// minimum under (length, dewey) — a characterization independent of how
/// the tree was partitioned into tasks, which is what makes the parallel
/// merge bit-identical to serial under any split/steal pattern.
struct WitnessCandidate {
  bool found = false;
  std::vector<EventId> path;
  std::vector<std::uint32_t> dewey;
  /// When set, the held witness buffers are charged against the search's
  /// byte budget (and re-charged as better candidates replace them).
  search::MemoryAccountant* memory = nullptr;

  ~WitnessCandidate() { drop_charge(); }

  void offer(const std::vector<EventId>& p,
             const std::vector<std::uint32_t>& d) {
    if (found && !wins(p.size(), d)) return;
    found = true;
    path = p;
    dewey = d;
    recharge();
  }

  void merge(WitnessCandidate&& other) {
    if (!other.found) return;
    other.drop_charge();
    if (found && !wins(other.path.size(), other.dewey)) return;
    found = true;
    path = std::move(other.path);
    dewey = std::move(other.dewey);
    recharge();
  }

 private:
  bool wins(std::size_t len, const std::vector<std::uint32_t>& d) const {
    if (len != path.size()) return len < path.size();
    return d < dewey;
  }

  void recharge() {
    if (memory == nullptr) return;
    memory->release(charged_);
    charged_ = path.size() * sizeof(EventId) +
               dewey.size() * sizeof(std::uint32_t);
    memory->charge(charged_);
  }

  void drop_charge() {
    if (memory == nullptr) return;
    memory->release(charged_);
    charged_ = 0;
  }

  std::uint64_t charged_ = 0;
};

/// Deadlock hooks: terminals just continue; stuck states update the
/// per-task witness candidate and, in parallel mode, a shared
/// stuck-state fingerprint set that counts each distinct stuck state
/// once across tasks.
struct DeadlockHooks {
  /// The verdict, witness validity and distinct-stuck-state count are
  /// all functions of reachable stepper states, so the broader
  /// stepper-state excusals apply.
  static constexpr bool kStateOnly = true;

  search::ShardedFingerprintSet* stuck_set;  ///< null in serial mode
  WitnessCandidate* witness;

  bool on_terminal(const std::vector<EventId>& /*schedule*/) { return true; }

  void on_stuck(const std::vector<EventId>& path, std::uint64_t fp,
                const std::vector<std::uint32_t>& dewey) {
    // No payload: any colliding fingerprints already tripped the visited
    // set's collision check (stuck fingerprints are claim fingerprints).
    if (stuck_set != nullptr) stuck_set->insert(fp);
    witness->offer(path, dewey);
  }
};

template <class Dedup>
using DeadlockSearch =
    search::EnumerationSearch<search::NullTracker, Dedup, DeadlockHooks>;

/// The engine-facing budget: everything from the options except
/// max_schedules (a stuck-state search has no complete-schedule budget).
search::SearchOptions engine_options(const DeadlockOptions& options) {
  search::SearchOptions so = options;
  so.max_schedules = 0;
  return so;
}

DeadlockReport run_serial(const Trace& trace, const DeadlockOptions& options,
                          const search::IndependenceRelation* indep) {
  const search::SearchOptions so = engine_options(options);
  search::SharedContext ctx(so);
  search::ShardedFingerprintSet visited(
      search::make_store_config(trace, so, 1));
  visited.set_accountant(&ctx.memory);
  // Under reduction the visited claims key (state, sleep set) pairs, so
  // the engine's per-visit deadlocked_prefixes can count one physical
  // stuck frontier once per sleep context; a raw-fingerprint stuck set
  // restores the distinct-stuck-state count (exactly as parallel mode
  // always has).
  const bool reduced = so.reduction != search::ReductionMode::kOff;
  std::optional<search::ShardedFingerprintSet> stuck;
  if (reduced) {
    // Raw state fingerprints, already collision-checked by the visited
    // set: no payload verification.
    stuck.emplace(1, /*verify_collisions=*/false);
    stuck->set_accountant(&ctx.memory);
  }
  WitnessCandidate witness;
  witness.memory = &ctx.memory;
  DeadlockReport report;
  DeadlockSearch<search::SharedSetDedup> engine(
      trace, options.stepper, so, &ctx, search::NullTracker{},
      search::SharedSetDedup(&visited),
      DeadlockHooks{reduced ? &*stuck : nullptr, &witness}, indep);
  report.search = engine.run();
  report.can_deadlock = witness.found;
  report.witness_prefix = std::move(witness.path);
  report.search.memo_bytes = visited.bytes();
  report.search.shard_sizes = visited.shard_sizes();
  if (reduced) report.search.deadlocked_prefixes = stuck->size();
  report.stuck_states = report.search.deadlocked_prefixes;
  report.states_visited = static_cast<std::size_t>(visited.size());
  report.truncated = report.search.truncated;
  return report;
}

DeadlockReport run_parallel(const Trace& trace, const DeadlockOptions& options,
                            std::vector<search::SearchTask> roots,
                            std::size_t threads,
                            const search::IndependenceRelation* indep) {
  search::SearchOptions so = engine_options(options);
  const bool reduced = so.reduction != search::ReductionMode::kOff;
  // Private-set tasks re-explore states their regions share (that is
  // what makes the witness deterministic), so on DAG-shaped state
  // spaces every extra task multiplies duplicated work.  Unless the
  // caller tuned the cutoff, cap donations to the shallow levels:
  // enough to balance first-level skew, bounded duplication.  Never
  // affects results — only who explores what.
  if (so.steal.max_split_depth == 0) so.steal.max_split_depth = 3;
  search::SharedContext ctx(so);
  search::ShardedFingerprintSet visited(
      search::make_store_config(trace, so, 4 * threads));
  visited.set_accountant(&ctx.memory);
  // Stuck states are identified by their raw state fingerprint (without
  // reduction that IS the claim fingerprint, which already went through
  // the visited set's collision check; under reduction the raw
  // fingerprint is the same stepper hash, just not sleep-folded), so
  // this set skips payload verification.
  search::ShardedFingerprintSet stuck(4 * threads,
                                      /*verify_collisions=*/false);
  stuck.set_accountant(&ctx.memory);

  // Count the root state once, as the serial search would at its first
  // explore() entry (tasks start at least one event in and never revisit
  // it).  Under reduction the serial claim keys the (state, sleep set)
  // pair — the root sleeps on nothing.
  {
    TraceStepper root(trace, options.stepper);
    std::vector<std::uint64_t> key;
    const std::vector<std::uint64_t>* payload = nullptr;
    const std::vector<EventId> root_sleep;
    if (visited.verify_collisions()) {
      root.encode_key(key);
      if (reduced) search::extend_key_with_sleep(root_sleep, key);
      payload = &key;
    }
    std::uint64_t root_fp =
        visited.exact_keys() ? root.packed_word() : root.state_hash();
    if (reduced) {
      root_fp = search::fold_sleep(root_fp,
                                   search::sleep_set_hash(root_sleep));
    }
    visited.insert(root_fp, payload);
    ctx.states.fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex witness_mu;
  WitnessCandidate best;
  const search::SearchStats total = search::run_work_stealing(
      std::move(roots), threads, so.steal.seed, ctx,
      [&](const search::SearchTask& task, search::WorkerHandle& worker) {
        WitnessCandidate local;
        local.memory = &ctx.memory;
        DeadlockSearch<search::PrivateSetDedup> engine(
            trace, options.stepper, so, &ctx, search::NullTracker{},
            search::PrivateSetDedup(&visited),
            DeadlockHooks{&stuck, &local}, indep);
        engine.seed(task.seed);
        engine.attach_worker(&worker, &task);
        if (reduced) engine.set_initial_sleep(task.sleep);
        const search::SearchStats stats = engine.run();
        if (local.found) {
          std::lock_guard<std::mutex> lock(witness_mu);
          best.merge(std::move(local));
        }
        return stats;
      });

  DeadlockReport report;
  report.can_deadlock = best.found;
  report.witness_prefix = std::move(best.path);
  report.search = total;
  // The shared stores are authoritative: tasks overcount states and
  // stuck prefixes they both reach (private-set walks), so the distinct
  // totals come from the sets, never from summing per task.
  report.search.deadlocked_prefixes = stuck.size();
  report.search.states_visited = visited.size();
  // The manually claimed root lands in the depth histogram here (tasks
  // start one event in); a state's depth is its done-set size, so the
  // histogram is deterministic no matter which task first-claims a state.
  if (report.search.depth_states.empty()) {
    report.search.depth_states.resize(1, 0);
  }
  report.search.depth_states[0] += 1;
  report.search.memo_bytes = visited.bytes();
  report.search.shard_sizes = visited.shard_sizes();
  report.stuck_states = stuck.size();
  report.states_visited = static_cast<std::size_t>(visited.size());
  report.truncated = report.search.truncated;
  return report;
}

/// Reduction-aware canonical witness.  Which (length, dewey)-minimal
/// stuck prefix the search surfaces depends on which interleavings the
/// reduction explored, so two ReductionModes (or a mode change across
/// releases) can report different — equally valid — witnesses for the
/// same stuck state.  Re-permute the witness's own event set greedily,
/// always executing its smallest schedulable event next, and accept the
/// permutation only when it runs to full length AND stops in exactly the
/// reported witness's state (binary-semaphore clamping makes final
/// states order-dependent, and the stuck frontier is a function of the
/// state).  The result is a deterministic function of the witness's
/// event set and final state alone; on failure the original prefix is
/// returned unchanged.
std::vector<EventId> canonicalize_witness(
    const Trace& trace, const StepperOptions& stepper_options,
    const std::vector<EventId>& witness) {
  if (witness.size() < 2) return witness;
  TraceStepper ref(trace, stepper_options);
  for (EventId e : witness) {
    if (!ref.enabled(e)) return witness;  // defensive: replay must hold
    ref.apply(e);
  }
  std::vector<std::uint64_t> want;
  ref.encode_key(want);

  DynamicBitset members(trace.num_events());
  for (EventId e : witness) members.set(e);
  TraceStepper s(trace, stepper_options);
  std::vector<EventId> out;
  out.reserve(witness.size());
  std::vector<EventId> enabled;
  for (std::size_t step = 0; step < witness.size(); ++step) {
    s.enabled_events(enabled);
    EventId pick = kNoEvent;
    for (EventId e : enabled) {
      if (members.test(e) && (pick == kNoEvent || e < pick)) pick = e;
    }
    if (pick == kNoEvent) return witness;  // set not greedily schedulable
    s.apply(pick);
    out.push_back(pick);
  }
  std::vector<std::uint64_t> got;
  s.encode_key(got);
  return got == want ? out : witness;
}

}  // namespace

DeadlockReport analyze_deadlocks(const Trace& trace,
                                 const DeadlockOptions& options) {
  const std::size_t threads =
      search::resolve_num_threads(options.num_threads);
  std::unique_ptr<search::IndependenceRelation> indep;
  if (options.reduction != search::ReductionMode::kOff) {
    indep = std::make_unique<search::IndependenceRelation>(trace);
  }
  DeadlockReport report;
  bool ran = false;
  if (threads > 1) {
    // NullTracker engine: stepper-state (untracked) dynamic independence.
    std::vector<search::SearchTask> roots = search::root_tasks(
        trace, options.stepper, indep.get(), /*tracker_sensitive=*/false);
    if (!roots.empty()) {
      report = run_parallel(trace, options, std::move(roots), threads,
                            indep.get());
      ran = true;
    }
  }
  if (!ran) report = run_serial(trace, options, indep.get());
  // Unreduced searches already report the global (length, dewey) minimum,
  // which is canonical by itself; leave it untouched.
  if (options.reduction != search::ReductionMode::kOff &&
      report.can_deadlock && !report.truncated) {
    report.witness_prefix =
        canonicalize_witness(trace, options.stepper, report.witness_prefix);
  }
  return report;
}

std::uint64_t DeadlockReport::approx_bytes() const {
  return sizeof(DeadlockReport) + search.approx_bytes() +
         witness_prefix.capacity() * sizeof(EventId);
}

}  // namespace evord
