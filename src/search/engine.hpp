// The generic DFS engine over TraceStepper.
//
// EnumerationSearch<Tracker, Dedup, Hooks> walks the schedule tree,
// delivering terminal (complete) schedules and stuck prefixes to the
// hooks.  A pluggable per-event Tracker rides along the DFS (the
// causal-class tracker maintains closure rows / token queues); a
// pluggable Dedup policy prunes revisited states by 64-bit fingerprint.
// Schedule enumeration, causal-class enumeration and deadlock search all
// run on it.  The one other explorer, the memoized can-precede sweep, is
// a private serial walk of its own (feasible/schedule_space.cpp) that
// shares only SharedContext and the stores.
//
// Contracts (see docs/SEARCH.md for the full write-up):
//
//   Tracker: `Undo apply(EventId e, const DynamicBitset& done_before)`
//   is called BEFORE the stepper executes e (done_before is the executed
//   set without e); `void undo(const Undo&)` reverts it (LIFO);
//   `std::uint64_t fingerprint(std::uint64_t stepper_hash)` folds the
//   tracker's own state hash into the stepper's; `void extend_key(const
//   DynamicBitset& done, std::vector<std::uint64_t>&)` appends the
//   tracker's full payload words for the debug collision cross-check.
//
//   Dedup: `bool claim(fp, payload)` — true when the state was never
//   seen before, so this engine expands (and counts) it.
//
//   Enumeration hooks: `bool on_terminal(const std::vector<EventId>&
//   schedule, const Tracker&)` (the tracker as it stands after the last
//   event, so the causal-class hooks read the schedule's closure rows off
//   it; false stops the whole search), `void on_stuck(const
//   std::vector<EventId>& path, std::uint64_t fp)` — called in DFS
//   discovery order, which the deadlock search relies on to keep the
//   first shortest stuck prefix as its witness.
//
// Partial-order reduction (SearchOptions::reduction == kSourceWakeup):
// the engine threads a sleep set through the DFS — inherited along
// edges, extended across explored siblings — and expands only a source
// subset of the enabled events at each state (search/independence.hpp:
// necessary enabling closures and dynamic, state-aware independence).
// Dynamic independence preserves the tracker's state exactly when the
// engine carries one (class enumeration); a NullTracker engine (deadlock
// search) gets the broader stepper-state excusals.  Sleep inheritance
// uses per-depth wakeup frames (compute_wakeup_masks) — one independence
// mask per sleeping/selected event, evaluated at the expanded state — so
// excused pairs (surplus-token V/V, already-posted Post ops) propagate
// into child sleep sets instead of being re-split.  The frames are a
// pure function of (stepper state, sleep set), so dedup claims key on
// exactly the (state, sleep set) pair: the reduced subtree below a node
// is a deterministic function of that pair, which keeps pruning sound.
// Stuck states are still reported under their raw state fingerprint
// (not sleep-folded), so distinct-stuck-state counting is
// reduction-blind.  Soundness per explorer is a front-end decision; see
// docs/SEARCH.md §POR.
//
// Threads: run() walks the whole tree on the calling thread, and so
// does every explorer built on it; no search starts a thread
// (docs/SEARCH.md §4).
//
// Budget semantics (via SharedContext):
//   max_states    — claim-then-check against this engine's own
//                   states_visited: state #max_states is still claimed
//                   and counted but not expanded; siblings continue (no
//                   global unwind), matching the historical per-explorer
//                   behaviour.  Only dedup engines check it.
//   max_schedules — strict: the run stops at its max_schedules-th
//                   terminal visit.
//   deadline      — polled every 256 states; a trip stops the search.
//   max_memory_bytes — strict: the stores and witness buffers charge the
//                   context's MemoryAccountant and the engine polls it
//                   per expanded state, stopping with
//                   StopReason::kMemory (overshoot bounded by one
//                   state's charge).  The deterministic fault hooks
//                   (util/fault.hpp) ride the same polls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "feasible/stepper.hpp"
#include "search/fingerprint_set.hpp"
#include "search/independence.hpp"
#include "search/memory.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace evord::search {

/// Tracker that tracks nothing (fingerprint = the stepper's state hash).
struct NullTracker {
  struct Undo {};
  Undo apply(EventId /*e*/, const DynamicBitset& /*done_before*/) {
    return {};
  }
  void undo(const Undo& /*u*/) {}
  std::uint64_t fingerprint(std::uint64_t stepper_hash) const {
    return stepper_hash;
  }
  void extend_key(const DynamicBitset& /*done*/,
                  std::vector<std::uint64_t>& /*key*/) const {}
};

/// No deduplication: every state is expanded wherever reached.
struct NoDedup {
  static constexpr bool kEnabled = false;
  bool verify_collisions() const { return false; }
  bool exact_keys() const { return false; }
  bool claim(std::uint64_t /*fp*/,
             const std::vector<std::uint64_t>* /*payload*/) {
    return true;
  }
};

/// Dedup against a sharded set: the first visit of a state expands it;
/// every later one prunes.
class SetDedup {
 public:
  static constexpr bool kEnabled = true;
  explicit SetDedup(ShardedFingerprintSet* set) : set_(set) {}
  bool verify_collisions() const { return set_->verify_collisions(); }
  bool exact_keys() const { return set_->exact_keys(); }
  bool claim(std::uint64_t fp, const std::vector<std::uint64_t>* payload) {
    return set_->insert(fp, payload);
  }

 private:
  ShardedFingerprintSet* set_;
};

/// What one search shares with its stores: the deadline, the byte budget
/// and a sticky stop flag.  Each context belongs to one engine (or one
/// memoized sweep) on one thread; the engine keeps its own stop reason
/// in SearchStats.
struct SharedContext {
  explicit SharedContext(const SearchOptions& options)
      : deadline(options.time_budget_seconds),
        memory(options.max_memory_bytes) {}

  Deadline deadline;
  /// Strict max_memory_bytes gate; the stores and witness buffers charge
  /// it, the engines poll it (search/memory.hpp).
  MemoryAccountant memory;
  /// Sticky once set: every later poll of the search unwinds.
  bool stop = false;

  void request_stop() { stop = true; }
  bool stop_requested() const { return stop; }
};

/// DFS over the schedule tree; delivers terminals and stuck prefixes.
template <class Tracker, class Dedup, class Hooks>
class EnumerationSearch {
 public:
  EnumerationSearch(const Trace& trace, const StepperOptions& stepper_options,
                    const SearchOptions& options, SharedContext* ctx,
                    Tracker tracker, Dedup dedup, Hooks hooks,
                    const IndependenceRelation* indep = nullptr)
      : options_(options),
        ctx_(ctx),
        stepper_(trace, stepper_options),
        tracker_(std::move(tracker)),
        dedup_(std::move(dedup)),
        hooks_(std::move(hooks)),
        indep_(indep),
        // Dynamic independence must preserve the tracker's state exactly
        // when the engine carries one; NullTracker engines get the
        // broader stepper-state excusals.
        dyn_(indep, !std::is_same_v<Tracker, NullTracker>),
        source_selector_(indep, &dyn_),
        reduce_(options.reduction != ReductionMode::kOff) {
    EVORD_CHECK(!reduce_ || indep_ != nullptr,
                "reduction requires an IndependenceRelation");
    // Exact-key mode: when the store holds injective single-word packed
    // states (front-end contract: NullTracker, reduction off, layout
    // fits one word), dedup directly on the packed word — collision-free
    // and cheaper than hashing.
    if constexpr (Dedup::kEnabled) {
      exact_ = dedup_.exact_keys() && !reduce_;
      EVORD_CHECK(!exact_ || (stepper_.layout().single_word() &&
                              std::is_same_v<Tracker, NullTracker>),
                  "exact-key dedup requires a single-word packed layout "
                  "and no tracker state");
    }
    const std::size_t n = trace.num_events();
    path_.reserve(n);
    enabled_stack_.reserve(n + 1);
    stats_.depth_states.assign(n + 1, 0);
  }

  /// Walks the whole tree from the initial state, on this thread.
  SearchStats run() {
    if (reduce_) sleep_stack_.assign(1, std::vector<EventId>{});
    dfs(0);
    return stats_;
  }

  const TraceStepper& stepper() const { return stepper_; }
  Tracker& tracker() { return tracker_; }

 private:
  void set_reason(StopReason reason) {
    if (stats_.stop_reason == StopReason::kNone) stats_.stop_reason = reason;
  }

  const std::vector<std::uint64_t>* payload(std::size_t depth) {
    if (!dedup_.verify_collisions()) return nullptr;
    stepper_.encode_key(key_scratch_);
    tracker_.extend_key(stepper_.done_bits(), key_scratch_);
    // Under reduction the claim keys the (state, sleep set) pair, so the
    // collision-check payload must cover the sleep set too.
    if (reduce_) extend_key_with_sleep(sleep_stack_[depth], key_scratch_);
    return &key_scratch_;
  }

  /// Visits one complete schedule under the strict terminal budget;
  /// returns false to unwind the whole search.
  bool visit_terminal() {
    ++stats_.terminals;
    if (!hooks_.on_terminal(path_, tracker_)) {
      stats_.stopped_by_visitor = true;
      set_reason(StopReason::kVisitor);
      ctx_->request_stop();
      return false;
    }
    if (options_.max_schedules != 0 &&
        stats_.terminals >= options_.max_schedules) {
      stats_.truncated = true;
      set_reason(StopReason::kMaxTerminals);
      ctx_->request_stop();
      return false;
    }
    return true;
  }

  /// Returns false to unwind the whole search (stop / strict budgets).
  bool dfs(std::size_t depth) {
    if (ctx_->stop_requested()) return false;
    if (stepper_.complete()) return visit_terminal();

    std::uint64_t fp = 0;
    if constexpr (Dedup::kEnabled) {
      fp = exact_ ? stepper_.packed_word()
                  : tracker_.fingerprint(stepper_.state_hash());
      const std::uint64_t claim_fp =
          reduce_ ? fold_sleep(fp, sleep_set_hash(sleep_stack_[depth])) : fp;
      if (!dedup_.claim(claim_fp, payload(depth))) {
        ++stats_.dedup_hits;
        return true;
      }
      ++stats_.states_visited;
      ++stats_.depth_states[stepper_.num_executed()];
      // Claim-then-check: this state is counted but not expanded once the
      // budget is reached; siblings keep getting claimed (no unwind).
      if (options_.max_states != 0 &&
          stats_.states_visited >= options_.max_states) {
        stats_.truncated = true;
        set_reason(StopReason::kMaxStates);
        return true;
      }
    } else {
      ++stats_.states_visited;
      ++stats_.depth_states[stepper_.num_executed()];
    }
    if ((((++budget_poll_ & 255u) == 0) && ctx_->deadline.expired()) ||
        (fault::enabled() && fault::on_state_expanded())) {
      stats_.truncated = true;
      set_reason(StopReason::kDeadline);
      ctx_->request_stop();
      return false;
    }
    // Memory is polled per expanded state (one relaxed load): the store
    // charge for this state has just landed, so a budget of N bytes
    // overshoots by at most one state's charge.
    if (ctx_->memory.exceeded()) {
      stats_.truncated = true;
      set_reason(StopReason::kMemory);
      ctx_->request_stop();
      return false;
    }

    // One vector per depth, reused across siblings (capacity kept); the
    // ctor reserve keeps per-depth slots stable across recursion.
    if (depth == enabled_stack_.size()) enabled_stack_.emplace_back();
    if (reduce_) {
      stepper_.enabled_events(full_enabled_);
      if (full_enabled_.empty()) {
        ++stats_.deadlocked_prefixes;
        if constexpr (!Dedup::kEnabled) {
          fp = tracker_.fingerprint(stepper_.state_hash());
        }
        // Stuck states report their RAW state fingerprint: the same
        // deadlocked frontier reached under different sleep contexts is
        // one stuck state, not several.
        hooks_.on_stuck(path_, fp);
        return true;
      }
      std::vector<EventId>& selected = enabled_stack_[depth];
      source_selector_.select(stepper_, full_enabled_, selected,
                              &stats_.dyn_excused);
      stats_.source_skipped += full_enabled_.size() - selected.size();
      drop_sleeping(sleep_stack_[depth], selected, stats_.sleep_pruned);
      // Fully slept: not stuck — the state has enabled events, they are
      // just all covered by earlier exploration.
      if (selected.empty()) return true;
      // This state's wakeup frame: dynamic-independence masks over the
      // post-filter selected events, read by the child-sleep computation
      // below.
      if (mask_stack_.size() < depth + 1) mask_stack_.resize(depth + 1);
      compute_wakeup_masks(dyn_, stepper_, sleep_stack_[depth], selected,
                           mask_stack_[depth], &stats_.dyn_excused);
    } else {
      stepper_.enabled_events(enabled_stack_[depth]);
      if (enabled_stack_[depth].empty()) {
        ++stats_.deadlocked_prefixes;
        if constexpr (!Dedup::kEnabled) {
          fp = tracker_.fingerprint(stepper_.state_hash());
        }
        hooks_.on_stuck(path_, fp);
        return true;
      }
    }
    bool keep_going = true;
    for (std::size_t i = 0;
         keep_going && i < enabled_stack_[depth].size(); ++i) {
      const EventId e = enabled_stack_[depth][i];
      if (reduce_) {
        if (sleep_stack_.size() < depth + 2) sleep_stack_.resize(depth + 2);
        child_sleep(*indep_, sleep_stack_[depth], enabled_stack_[depth], i,
                    mask_stack_[depth], sleep_stack_[depth + 1]);
      }
      const typename Tracker::Undo tu = tracker_.apply(e, stepper_.done_bits());
      const TraceStepper::Undo su = stepper_.apply(e);
      path_.push_back(e);
      keep_going = dfs(depth + 1);
      path_.pop_back();
      stepper_.undo(su);
      tracker_.undo(tu);
    }
    return keep_going;
  }

  SearchOptions options_;
  SharedContext* ctx_;
  TraceStepper stepper_;
  Tracker tracker_;
  Dedup dedup_;
  Hooks hooks_;
  SearchStats stats_;
  std::vector<EventId> path_;
  std::vector<std::vector<EventId>> enabled_stack_;
  std::vector<std::uint64_t> key_scratch_;
  const IndependenceRelation* indep_;
  DynamicIndependence dyn_;
  SourceSetSelector source_selector_;
  bool reduce_;
  bool exact_ = false;  ///< dedup on the packed word, not a hash
  std::vector<std::vector<EventId>> sleep_stack_;  ///< sleep set per depth
  /// Wakeup frame per depth: dynamic-independence masks for (sleep ∪
  /// selected) at that state, read by the child-sleep computation.
  std::vector<std::vector<std::uint64_t>> mask_stack_;
  std::vector<EventId> full_enabled_;  ///< pre-reduction enabled scratch
  std::uint32_t budget_poll_ = 0;
};

}  // namespace evord::search
