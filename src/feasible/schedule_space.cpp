#include "feasible/schedule_space.hpp"

#include <cstdint>

#include "search/engine.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace evord {

namespace {

using search::StopReason;

/// The memoized completability sweep: per state, "is a complete schedule
/// reachable from here", with the answer cached in a PackedStateRegistry
/// with one value bit, keyed by the stepper's 64-bit state hash (or by
/// the packed word itself when the store has exact keys).  The state
/// graph is acyclic, so the memoized recursion terminates.  Every enabled
/// child is expanded, and each completable one marks the matrices of
/// `out`.
///
/// Budget cuts and the memo: a cut (requested stop, deadline, memory,
/// fault or max_states) makes a state's children report "not
/// completable" without having been searched.  A sweep that has seen a
/// cut therefore never memoizes a `false` verdict, so every entry in its
/// store is a proven fact: a truncated run counts only states it
/// decided, and no lookup can read an unproven `false` as an answer.
/// `true` verdicts are always proven (a complete schedule was reached)
/// and are kept.
class MemoizedSweep {
 public:
  MemoizedSweep(const Trace& trace, const ScheduleSpaceOptions& options,
                search::SharedContext* ctx, search::PackedStateRegistry* memo,
                CanPrecedeResult& out)
      : max_states_(options.max_states),
        ctx_(ctx),
        memo_(memo),
        stepper_(trace, options.stepper),
        can_precede_(out.can_precede),
        can_coexist_(options.build_coexist ? &out.can_coexist : nullptr),
        // A state's slot is its depth (events executed); the complete
        // state never expands, so depths 0..n-1 are all that is used.
        enabled_stack_(trace.num_events()) {
    // Exact-key mode: memoize directly on the injective packed word
    // (front-end contract: the layout fits one word).
    exact_ = memo_->exact_keys();
    EVORD_CHECK(!exact_ || stepper_.layout().single_word(),
                "exact-key memo requires a single-word packed layout");
    stats_.depth_states.assign(trace.num_events() + 1, 0);
  }

  /// True iff the current state can be extended to a complete schedule.
  bool explore() {
    if (stepper_.complete()) return true;
    // The deadline/memory polls run BEFORE the memo lookup: memo hits are
    // the common case (coexistence marking is almost all hits), and a hit
    // path that never polls would let a memo-dominated run overrun its
    // time_budget_seconds arbitrarily.  Same 256-interval counter as the
    // enumeration engine.
    if ((((++budget_poll_ & 255u) == 0) && ctx_->deadline.expired()) ||
        (fault::enabled() && fault::on_state_expanded())) {
      stats_.truncated = true;
      set_reason(StopReason::kDeadline);
      ctx_->request_stop();
      return false;
    }
    if (ctx_->memory.exceeded()) {
      stats_.truncated = true;
      set_reason(StopReason::kMemory);
      ctx_->request_stop();
      return false;  // unsound once truncated; flagged
    }
    const std::uint64_t fp =
        exact_ ? stepper_.packed_word() : stepper_.state_hash();
    bool memoized = false;
    if (memo_->lookup(fp, &memoized, payload())) {
      ++stats_.dedup_hits;
      return memoized;
    }
    if (ctx_->stop_requested()) {
      stats_.truncated = true;
      return false;  // unsound once truncated; flagged
    }
    // The sweep is serial, so the states it memoized are the global
    // distinct-state count.
    if (max_states_ != 0 && stats_.states_visited >= max_states_) {
      stats_.truncated = true;
      set_reason(StopReason::kMaxStates);
      return false;  // unsound once truncated; flagged
    }

    const std::size_t depth = stepper_.num_executed();
    std::vector<EventId>& enabled = enabled_stack_[depth];
    stepper_.enabled_events(enabled);
    bool completable = false;
    for (const EventId e : enabled) {
      const TraceStepper::Undo u = stepper_.apply(e);
      const bool child_ok = explore();
      stepper_.undo(u);
      if (child_ok) {
        completable = true;
        // Every already-executed event can precede e in some complete
        // schedule that goes through this state.
        can_precede_[e] |= stepper_.done_bits();
      }
    }
    if (completable && can_coexist_ != nullptr) mark_coexisting(enabled);
    // Once a budget cut has stopped some child early, `false` is
    // unproven: return it (the run is flagged truncated) but never let
    // it into the store.
    if (!completable && stats_.truncated) return false;
    if (memo_->store(fp, completable, payload())) {
      ++stats_.states_visited;
      ++stats_.depth_states[depth];
    }
    return completable;
  }

  const search::SearchStats& stats() const { return stats_; }

 private:
  void set_reason(StopReason reason) {
    if (stats_.stop_reason == StopReason::kNone) stats_.stop_reason = reason;
  }

  const std::vector<std::uint64_t>* payload() {
    if (!memo_->verify_collisions()) return nullptr;
    stepper_.encode_key(key_scratch_);
    return &key_scratch_;
  }

  /// For each pair of events enabled at this completable state, checks
  /// that running them back-to-back (either order) still completes; the
  /// re-entrant explore() calls hit the memo, so this is cheap after the
  /// main DFS.  They run two events deeper, so they never touch
  /// `enabled`'s slot.
  void mark_coexisting(const std::vector<EventId>& enabled) {
    std::vector<DynamicBitset>& coexist = *can_coexist_;
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      for (std::size_t j = i + 1; j < enabled.size(); ++j) {
        const EventId x = enabled[i];
        const EventId y = enabled[j];
        if (coexist[x].test(y)) continue;  // already known
        if (pair_completable(x, y) || pair_completable(y, x)) {
          coexist[x].set(y);
          coexist[y].set(x);
        }
      }
    }
  }

  /// Can `first` then immediately `second` run from the current state and
  /// still complete?
  bool pair_completable(EventId first, EventId second) {
    const TraceStepper::Undo u1 = stepper_.apply(first);
    bool ok = false;
    if (stepper_.enabled(second)) {
      const TraceStepper::Undo u2 = stepper_.apply(second);
      ok = explore();
      stepper_.undo(u2);
    }
    stepper_.undo(u1);
    return ok;
  }

  std::size_t max_states_;
  search::SharedContext* ctx_;
  search::PackedStateRegistry* memo_;
  TraceStepper stepper_;
  std::vector<DynamicBitset>& can_precede_;
  std::vector<DynamicBitset>* can_coexist_;  ///< null = no coexistence
  search::SearchStats stats_;
  /// Enabled events of the state at each depth on the current path.
  std::vector<std::vector<EventId>> enabled_stack_;
  std::vector<std::uint64_t> key_scratch_;
  bool exact_ = false;  ///< memoize on the packed word, not a hash
  std::uint32_t budget_poll_ = 0;
};

}  // namespace

CanPrecedeResult compute_can_precede(const Trace& trace,
                                     const ScheduleSpaceOptions& options) {
  const std::size_t n = trace.num_events();
  CanPrecedeResult result;
  result.can_precede.assign(n, DynamicBitset(n));
  if (options.build_coexist) result.can_coexist.assign(n, DynamicBitset(n));
  // Never reduced (see ScheduleSpaceOptions), so the store always gets
  // the exact packed keys an unreduced walk may use.
  search::SearchOptions so = options;
  so.reduction = search::ReductionMode::kOff;
  search::SharedContext ctx(so);
  search::PackedStateRegistry::Config memo_config =
      search::make_store_config(trace, so, /*initial_buckets=*/1);
  memo_config.value_bits = 1;
  search::PackedStateRegistry memo(memo_config);
  memo.set_accountant(&ctx.memory);
  MemoizedSweep sweep(trace, options, &ctx, &memo, result);
  result.feasible_nonempty = sweep.explore();
  result.search = sweep.stats();
  result.search.memo_bytes = memo.bytes();
  result.states_visited = static_cast<std::size_t>(memo.size());
  result.truncated = result.search.truncated;
  return result;
}

}  // namespace evord
