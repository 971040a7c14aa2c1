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
//   Dedup: `ClaimResult claim(fp, payload)` — `expand` says this engine
//   should expand the state; `first_claim` says the state was never seen
//   by any engine sharing the store (it counts toward the global
//   distinct-state budget).
//
//   Enumeration hooks: `kStateOnly` (true when every result the hooks
//   build is a function of reachable stepper states — the deadlock
//   search — so a NullTracker engine may use the unconditional
//   stepper-state dynamic excusals; false whenever schedules or causal
//   classes are surfaced), `bool on_terminal(const std::vector<EventId>&
//   schedule, const Tracker&)` (the tracker as it stands after the last
//   event, so the causal-class hooks read the schedule's closure rows off
//   it; false stops the whole search), `void on_stuck(const
//   std::vector<EventId>& path, std::uint64_t fp)` — called in DFS
//   discovery order, which the serial deadlock search relies on to keep
//   the first shortest stuck prefix as its witness.
//
// Partial-order reduction (SearchOptions::reduction == kSourceWakeup):
// the engine threads a sleep set through the DFS — inherited along
// edges, extended across explored siblings — and expands only a source
// subset of the enabled events at each state (search/independence.hpp:
// necessary enabling closures and dynamic, state-aware independence).
// Sleep inheritance uses per-depth wakeup frames (compute_wakeup_masks)
// — one independence mask per sleeping/selected event, evaluated at the
// expanded state — so excused pairs (surplus-token V/V, already-posted
// Post ops) propagate into child sleep sets instead of being re-split.
// The frames are a pure function of (stepper state, sleep set), so
// dedup claims still key on exactly the (state, sleep set) pair:
// the reduced subtree below a node is a deterministic function of that
// pair, which keeps pruning sound and the parallel walk bit-identical
// to serial.  Donated tasks carry their subtree root's sleep set in
// SearchTask::sleep, derived from the donor's frame (the same masks the
// in-walk children use, so donation is just serialization of the
// frame).  Stuck states are still reported under their raw state
// fingerprint (not sleep-folded), so distinct-stuck-state counting is
// reduction-blind.  Soundness per explorer is a front-end decision; see
// docs/SEARCH.md §POR.
//
// Work stealing: the engine runs on the scheduler (search/scheduler.hpp),
// one engine instance per SearchTask: the root task on the calling
// thread, and — once its walk has grown the sweep — every donated
// subtree on whichever worker takes it.  run(task, worker) replays the
// task's seed and hands the engine its WorkerHandle; the DFS then polls
// steal demand at every entry and answers it by donating the deepest
// unexplored siblings of its current path as new tasks (adaptive subtree
// splitting), removing them from its own walk so the visit sets
// partition.
//
// Budget semantics (shared, via SharedContext):
//   max_states    — claim-then-check: state #max_states is still claimed
//                   and counted but not expanded; siblings continue (no
//                   global unwind), matching the historical per-explorer
//                   behaviour.
//   max_schedules — strict and global: a shared atomic counter ensures
//                   the combined number of terminal visits never exceeds
//                   the budget, serial or parallel.  An unbudgeted run
//                   (max_schedules or max_states 0) never touches that
//                   field's shared counter.
//   deadline      — polled every 256 states; trips request a global
//                   stop.
//   max_memory_bytes — strict and global: the stores/scheduler/witness
//                   buffers charge one shared MemoryAccountant and the
//                   engine polls it per expanded state, stopping with
//                   StopReason::kMemory (overshoot bounded by one
//                   state's charge per worker).  The deterministic
//                   fault hooks (util/fault.hpp) ride the same polls.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "feasible/stepper.hpp"
#include "search/fingerprint_set.hpp"
#include "search/independence.hpp"
#include "search/memory.hpp"
#include "search/scheduler.hpp"
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

struct ClaimResult {
  bool expand = true;       ///< this engine should expand the state
  bool first_claim = true;  ///< no engine sharing the store saw it before
};

/// No deduplication: every state is expanded wherever reached.
struct NoDedup {
  static constexpr bool kEnabled = false;
  bool verify_collisions() const { return false; }
  bool exact_keys() const { return false; }
  ClaimResult claim(std::uint64_t /*fp*/,
                    const std::vector<std::uint64_t>* /*payload*/) {
    return {true, true};
  }
};

/// Dedup against a (possibly shared) sharded set: whoever inserts first
/// expands the state; everyone else prunes.
class SharedSetDedup {
 public:
  static constexpr bool kEnabled = true;
  explicit SharedSetDedup(ShardedFingerprintSet* set) : set_(set) {}
  bool verify_collisions() const { return set_->verify_collisions(); }
  bool exact_keys() const { return set_->exact_keys(); }
  ClaimResult claim(std::uint64_t fp,
                    const std::vector<std::uint64_t>* payload) {
    const bool won = set_->insert(fp, payload);
    return {won, won};
  }

 private:
  ShardedFingerprintSet* set_;
};

/// State shared by every engine instance of one logical search (one
/// instance per scheduler task in parallel mode; the serial case uses a
/// single context the same way).
struct SharedContext {
  explicit SharedContext(const SearchOptions& options)
      : deadline(options.time_budget_seconds),
        memory(options.max_memory_bytes) {}

  Deadline deadline;
  /// Strict global max_memory_bytes gate; the stores, scheduler and
  /// witness buffers charge it, the engines poll it (search/memory.hpp).
  MemoryAccountant memory;
  /// Strict max_schedules gate; counts only under that budget.
  std::atomic<std::uint64_t> terminals{0};
  /// Global distinct states; counts only under a max_states budget.
  std::atomic<std::uint64_t> states{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint8_t> stop_reason{0};

  /// First caller's reason sticks; everyone observes the stop flag.
  void request_stop(StopReason reason) {
    std::uint8_t expected = 0;
    stop_reason.compare_exchange_strong(expected,
                                        static_cast<std::uint8_t>(reason));
    stop.store(true, std::memory_order_release);
  }
  bool stop_requested() const {
    return stop.load(std::memory_order_acquire);
  }
  StopReason reason() const {
    return static_cast<StopReason>(stop_reason.load());
  }
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
        // when the engine carries one; NullTracker engines whose hooks
        // are kStateOnly get the broader stepper-state excusals.
        dyn_(indep,
             !std::is_same_v<Tracker, NullTracker> || !Hooks::kStateOnly),
        source_selector_(indep, &dyn_),
        reduce_(options.reduction != ReductionMode::kOff),
        num_events_(trace.num_events()) {
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
    path_.reserve(num_events_);
    enabled_stack_.reserve(num_events_ + 1);
    sibling_index_.reserve(num_events_ + 1);
    stats_.depth_states.assign(num_events_ + 1, 0);
  }

  /// Walks the whole tree from the initial state, on this thread alone.
  SearchStats run() {
    if (reduce_) sleep_stack_.assign(1, std::vector<EventId>{});
    dfs(0);
    return stats_;
  }

  /// Runs one scheduler task: fast-forwards through its seed prefix
  /// (every event must be enabled in sequence), starts from the sleep set
  /// its subtree root inherits (SearchTask::sleep), and walks the subtree
  /// with `worker` attached for steal demand and donation.
  SearchStats run(const SearchTask& task, WorkerHandle& worker) {
    for (EventId e : task.seed) {
      EVORD_CHECK(stepper_.enabled(e), "seed prefix is not schedulable");
      tracker_.apply(e, stepper_.done_bits());
      stepper_.apply(e);
      path_.push_back(e);
    }
    worker_ = &worker;
    if (reduce_) sleep_stack_.assign(1, task.sleep);
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

  /// Visits one complete schedule under the strict global terminal
  /// budget; returns false to unwind the whole search.
  bool visit_terminal() {
    const std::uint64_t count =
        options_.max_schedules == 0
            ? 0
            : ctx_->terminals.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options_.max_schedules != 0 && count > options_.max_schedules) {
      stats_.truncated = true;
      set_reason(StopReason::kMaxTerminals);
      ctx_->request_stop(StopReason::kMaxTerminals);
      return false;
    }
    ++stats_.terminals;
    if (!hooks_.on_terminal(path_, tracker_)) {
      stats_.stopped_by_visitor = true;
      set_reason(StopReason::kVisitor);
      ctx_->request_stop(StopReason::kVisitor);
      return false;
    }
    if (options_.max_schedules != 0 && count >= options_.max_schedules) {
      stats_.truncated = true;
      set_reason(StopReason::kMaxTerminals);
      ctx_->request_stop(StopReason::kMaxTerminals);
      return false;
    }
    return true;
  }

  /// Answers steal demand by donating the deepest unexplored siblings of
  /// the current path that satisfy the grain/depth cutoffs, as one task
  /// each.  The donated siblings are removed from this walk: the
  /// enumeration visit sets partition across tasks, so the donor must
  /// not revisit them.
  void try_split(std::size_t cur_depth) {
    const std::size_t seed_len = path_.size() - cur_depth;
    for (std::size_t d = cur_depth; d-- > 0;) {
      if (sibling_index_[d] + 1 >= enabled_stack_[d].size()) continue;
      // Depth of a subtree donated from here, in events executed.
      const std::size_t donated_depth = seed_len + d + 1;
      if (options_.steal.max_split_depth != 0 &&
          donated_depth > options_.steal.max_split_depth) {
        continue;
      }
      if (num_events_ - donated_depth < options_.steal.grain) continue;
      std::vector<EventId>& siblings = enabled_stack_[d];
      for (std::size_t j = sibling_index_[d] + 1; j < siblings.size(); ++j) {
        SearchTask task;
        task.seed.assign(path_.begin(),
                         path_.begin() +
                             static_cast<std::ptrdiff_t>(seed_len + d));
        task.seed.push_back(siblings[j]);
        if (reduce_) {
          // The stolen subtree starts from exactly the sleep set the
          // serial walk would carry into sibling j — the ancestor state's
          // wakeup frame, since dynamic independence must be evaluated at
          // the DONOR's state d.
          child_sleep(*indep_, sleep_stack_[d], enabled_stack_[d], j,
                      mask_stack_[d], task.sleep);
        }
        worker_->spawn(std::move(task));
      }
      siblings.resize(sibling_index_[d] + 1);
      return;
    }
  }

  /// Returns false to unwind the whole search (stop / strict budgets).
  bool dfs(std::size_t depth) {
    if (ctx_->stop_requested()) return false;
    if (worker_ != nullptr && worker_->split_wanted()) try_split(depth);
    if (stepper_.complete()) return visit_terminal();

    std::uint64_t fp = 0;
    if constexpr (Dedup::kEnabled) {
      fp = exact_ ? stepper_.packed_word()
                  : tracker_.fingerprint(stepper_.state_hash());
      const std::uint64_t claim_fp =
          reduce_ ? fold_sleep(fp, sleep_set_hash(sleep_stack_[depth])) : fp;
      const ClaimResult claim = dedup_.claim(claim_fp, payload(depth));
      if (!claim.expand) {
        ++stats_.dedup_hits;
        return true;
      }
      if (claim.first_claim) {
        ++stats_.states_visited;
        ++stats_.depth_states[stepper_.num_executed()];
      }
      // Claim-then-check: this state is counted but not expanded once the
      // budget is reached; siblings keep getting claimed (no unwind).
      if (options_.max_states != 0) {
        const std::uint64_t global =
            claim.first_claim
                ? ctx_->states.fetch_add(1, std::memory_order_relaxed) + 1
                : ctx_->states.load(std::memory_order_relaxed);
        if (global >= options_.max_states) {
          stats_.truncated = true;
          set_reason(StopReason::kMaxStates);
          return true;
        }
      }
    } else {
      ++stats_.states_visited;
      ++stats_.depth_states[stepper_.num_executed()];
    }
    if ((((++budget_poll_ & 255u) == 0) && ctx_->deadline.expired()) ||
        (fault::enabled() && fault::on_state_expanded())) {
      stats_.truncated = true;
      set_reason(StopReason::kDeadline);
      ctx_->request_stop(StopReason::kDeadline);
      return false;
    }
    // Memory is polled per expanded state (one relaxed load): the store
    // charge for this state has just landed, so a budget of N bytes
    // overshoots by at most one state's charge per worker.
    if (ctx_->memory.exceeded()) {
      stats_.truncated = true;
      set_reason(StopReason::kMemory);
      ctx_->request_stop(StopReason::kMemory);
      return false;
    }

    // One vector per depth, reused across siblings (capacity kept); the
    // ctor reserve keeps per-depth slots stable across recursion.
    if (depth == enabled_stack_.size()) {
      enabled_stack_.emplace_back();
      sibling_index_.push_back(0);
    }
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
      // below AND by try_split donation from this depth.
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
    // The loop re-reads size() each iteration: try_split() deeper in the
    // recursion may shrink this very vector to donate its tail.
    for (std::size_t i = 0;
         keep_going && i < enabled_stack_[depth].size(); ++i) {
      sibling_index_[depth] = static_cast<std::uint32_t>(i);
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
  std::vector<std::uint32_t> sibling_index_;
  std::vector<std::uint64_t> key_scratch_;
  const IndependenceRelation* indep_;
  DynamicIndependence dyn_;
  SourceSetSelector source_selector_;
  bool reduce_;
  bool exact_ = false;  ///< dedup on the packed word, not a hash
  std::vector<std::vector<EventId>> sleep_stack_;  ///< sleep set per depth
  /// Wakeup frame per depth: dynamic-independence masks for (sleep ∪
  /// selected) at that state, shared by the in-walk child-sleep
  /// computation and try_split donation.
  std::vector<std::vector<std::uint64_t>> mask_stack_;
  std::vector<EventId> full_enabled_;  ///< pre-reduction enabled scratch
  WorkerHandle* worker_ = nullptr;
  std::size_t num_events_;
  std::uint32_t budget_poll_ = 0;
};

}  // namespace evord::search
