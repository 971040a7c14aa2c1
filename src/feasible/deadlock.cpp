#include "feasible/deadlock.hpp"

#include <memory>
#include <optional>

#include "search/engine.hpp"

namespace evord {

namespace {

/// The witness: the first stuck prefix of minimal length the DFS meets.
/// The serial DFS meets stuck states in a fixed order, so the witness is
/// a deterministic function of the explored tree.
struct WitnessCandidate {
  bool found = false;
  std::vector<EventId> path;
  /// When set, the held witness buffer is charged against the search's
  /// byte budget (and re-charged as shorter candidates replace it).
  search::MemoryAccountant* memory = nullptr;

  WitnessCandidate() = default;
  WitnessCandidate(const WitnessCandidate&) = delete;
  WitnessCandidate& operator=(const WitnessCandidate&) = delete;
  ~WitnessCandidate() {
    if (memory != nullptr) memory->release(charged_);
  }

  void offer(const std::vector<EventId>& p) {
    if (found && p.size() >= path.size()) return;
    found = true;
    path = p;
    if (memory == nullptr) return;
    memory->release(charged_);
    charged_ = path.size() * sizeof(EventId);
    memory->charge(charged_);
  }

 private:
  std::uint64_t charged_ = 0;
};

/// Deadlock hooks: terminals just continue; stuck states update the
/// witness candidate and, under reduction, a stuck-state fingerprint set
/// that counts each distinct stuck state once across sleep contexts.
struct DeadlockHooks {
  search::PackedStateRegistry* stuck_set;  ///< null when unreduced
  WitnessCandidate* witness;

  bool on_terminal(const std::vector<EventId>& /*schedule*/,
                   const search::NullTracker& /*tracker*/) {
    return true;
  }

  void on_stuck(const std::vector<EventId>& path, std::uint64_t fp) {
    // No payload: any colliding fingerprints already tripped the visited
    // set's collision check (stuck fingerprints are claim fingerprints).
    if (stuck_set != nullptr) stuck_set->insert(fp);
    witness->offer(path);
  }
};

/// The verdict, witness validity and distinct-stuck-state count are all
/// functions of reachable stepper states, so the untracked engine's
/// broader stepper-state excusals apply.
using DeadlockSearch =
    search::EnumerationSearch<search::NullTracker, search::SetDedup,
                              DeadlockHooks>;

/// Reduction-aware canonical witness.  Which first shortest stuck
/// prefix the search surfaces depends on which interleavings the
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
  // A stuck-state search has no complete-schedule budget.
  search::SearchOptions so = options;
  so.max_schedules = 0;
  const bool reduced = so.reduction != search::ReductionMode::kOff;
  std::unique_ptr<search::IndependenceRelation> indep;
  if (reduced) indep = std::make_unique<search::IndependenceRelation>(trace);
  search::SharedContext ctx(so);
  search::PackedStateRegistry visited(
      search::make_store_config(trace, so, /*initial_buckets=*/1));
  visited.set_accountant(&ctx.memory);
  // Under reduction the visited claims key (state, sleep set) pairs, so
  // the engine's per-visit deadlocked_prefixes can count one physical
  // stuck frontier once per sleep context; a raw-fingerprint stuck set
  // restores the distinct-stuck-state count.
  std::optional<search::PackedStateRegistry> stuck;
  if (reduced) {
    // Raw state fingerprints, already collision-checked by the visited
    // set: no payload verification.
    stuck.emplace(search::PackedStateRegistry::Config{
        .initial_buckets = 1, .verify_collisions = false});
    stuck->set_accountant(&ctx.memory);
  }
  WitnessCandidate witness;
  witness.memory = &ctx.memory;
  DeadlockReport report;
  DeadlockSearch engine(trace, options.stepper, so, &ctx,
                        search::NullTracker{},
                        search::SetDedup(&visited),
                        DeadlockHooks{reduced ? &*stuck : nullptr, &witness},
                        indep.get());
  report.search = engine.run();
  report.can_deadlock = witness.found;
  report.witness_prefix = std::move(witness.path);
  report.search.memo_bytes = visited.bytes();
  if (reduced) report.search.deadlocked_prefixes = stuck->size();
  report.stuck_states = report.search.deadlocked_prefixes;
  report.states_visited = static_cast<std::size_t>(visited.size());
  report.truncated = report.search.truncated;
  // An unreduced search already reports the first shortest stuck prefix
  // of the full tree, which is canonical by itself; leave it untouched.
  if (reduced && report.can_deadlock && !report.truncated) {
    report.witness_prefix =
        canonicalize_witness(trace, options.stepper, report.witness_prefix);
  }
  return report;
}

std::uint64_t DeadlockReport::approx_bytes() const {
  return sizeof(DeadlockReport) + search.heap_bytes() +
         witness_prefix.capacity() * sizeof(EventId);
}

}  // namespace evord
