// Trace-level independence relation, source-set selection, and dynamic
// (state-aware) independence for partial-order reduction
// (search/engine.hpp, SearchOptions::reduction).
//
// Two events are *independent* when, whenever both are enabled, executing
// them in either order reaches the same state — same stepper frontier AND
// same causal-tracker state — and neither disables the other.  The
// relation here is static (computed once per trace, O(n^2) bits) and
// conservative: a pair is declared dependent unless one of the proofs in
// docs/SEARCH.md §POR applies.  Concretely, (a, b) with a != b is
// DEPENDENT iff any of
//   * same process (program order; never co-enabled, kept dependent for
//     conceptual safety — no query ever needs this pair),
//   * both semaphore ops on the same semaphore (P/P compete for tokens,
//     binary V's clamp, V/V order is FIFO-queue-visible to the causal
//     tracker),
//   * both event-variable ops on the same variable, EXCEPT Wait/Wait
//     (Waits read the posted flag and the establisher; they commute),
//   * conflicting shared-data accesses (Event::conflicts_with) or an
//     observed dependence edge of D (either direction).
// Fork/join pairs are NOT dependent on the events of the forked/joined
// process: fork(c) before any event of c, and every event of c before
// join(c), is forced by enabledness, so such pairs are never co-enabled
// and independence is vacuous (and required — marking them dependent
// would glue every child to its parent and erase the reduction on
// fork/join-parallel workloads).
//
// The source-set selector (ReductionMode::kSourceWakeup) returns, for a
// given state, a subset P of the enabled events such that every schedule
// from the state that avoids P executes only events independent of all
// of P.  It follows Abdulla et al.'s source sets and Valmari-style
// stubborn sets.  Construction (one candidate per enabled seed event,
// smallest wins):
//   W := {proc(seed)};  repeat: for p in W with next event a, add every
//   process q not in W that still has an unexecuted event dependent
//   with a; P := the ENABLED next events of W.
// Two refinements keep P small:
//   * a DISABLED closure head does not pull in its dependent processes —
//     instead the head's *necessary enabling set* joins W (processes
//     holding an unexecuted V for a blocked P, an unexecuted Post for a
//     blocked Wait, the joined child for a blocked Join, the forking
//     process for an unstarted process, the processes of unexecuted
//     D-predecessors).  Any run that ever executes the head must first
//     execute one of those;
//   * statically dependent pairs can be *dynamically excused* at the
//     current state (DynamicIndependence below): semaphore V/V when the
//     current count already covers every remaining P (new tokens are
//     never popped, so the token-queue order is causally invisible),
//     Post/Post and Post/Wait when the variable is already posted (the
//     Post is a no-op), and Clear/Clear always.  Only conditions that
//     stay true along every P-avoiding run are used inside the closure
//     (count can only grow while all P-holders are in W; posted cannot
//     flip while all Clear-holders are in W).  Engines whose results
//     are functions of stepper states alone (deadlock search) get the
//     unconditional variants: they only need stepper-state
//     commutation, which V/V, Post/Post, Post/Wait and Clear/Clear
//     satisfy from any state where both are enabled.
// Soundness: a schedule avoiding P never executes an event of a W
// process (its next event is in P, blocked behind the enabling set, or
// gated by program order), and by the closure no event of a non-W
// process is dependent with any next event of W, so every executed event
// is independent of all of P.  The "∃ unexecuted dependent event" test
// is O(1) via a precomputed per-(event, process) maximum dependent
// position.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "feasible/stepper.hpp"
#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/hash.hpp"

namespace evord::search {

class IndependenceRelation {
 public:
  explicit IndependenceRelation(const Trace& trace);

  const Trace& trace() const { return *trace_; }
  std::size_t num_events() const { return n_; }
  std::size_t num_processes() const { return num_procs_; }

  bool dependent(EventId a, EventId b) const { return dep_[a].test(b); }
  bool independent(EventId a, EventId b) const { return !dep_[a].test(b); }

  /// Does process `q` still have an unexecuted event dependent with `a`,
  /// given that `q` has executed its first `pos_q` events?
  bool process_has_dependent_after(EventId a, ProcId q,
                                   std::uint32_t pos_q) const {
    const std::int64_t m = max_dep_index_[a * num_procs_ + q];
    return m >= static_cast<std::int64_t>(pos_q);
  }

  /// True when per-event process masks are available (<= 64 processes),
  /// enabling the word-parallel source-set closure.
  bool has_proc_masks() const { return num_procs_ <= 64; }
  /// Bit q set iff process q has any event dependent with `a`.  All-zero
  /// when has_proc_masks() is false.
  std::uint64_t dep_proc_mask(EventId a) const { return dep_proc_mask_[a]; }

  // ----- dynamic-independence support tables --------------------------
  // "Hard" dependence = shared-data conflict or explicit D edge: never
  // dynamically excusable (the causal rows record edge direction).
  bool hard_dependent(EventId a, EventId b) const {
    return hard_dep_[a].test(b);
  }
  bool process_has_hard_dep_after(EventId a, ProcId q,
                                  std::uint32_t pos_q) const {
    return max_hard_index_[a * num_procs_ + q] >=
           static_cast<std::int64_t>(pos_q);
  }
  /// Per-(object, process) maximum index_in_process of the given op
  /// kind, or -1 — "does q still hold an unexecuted P/V/Post/Clear/Wait
  /// on this object" in O(1), the category-wise analogue of
  /// process_has_dependent_after.
  std::int64_t sem_p_max(ObjectId sem, ProcId q) const {
    return sem_p_max_[sem * num_procs_ + q];
  }
  std::int64_t sem_v_max(ObjectId sem, ProcId q) const {
    return sem_v_max_[sem * num_procs_ + q];
  }
  std::int64_t ev_post_max(ObjectId var, ProcId q) const {
    return ev_post_max_[var * num_procs_ + q];
  }
  std::int64_t ev_clear_max(ObjectId var, ProcId q) const {
    return ev_clear_max_[var * num_procs_ + q];
  }
  std::int64_t ev_wait_max(ObjectId var, ProcId q) const {
    return ev_wait_max_[var * num_procs_ + q];
  }
  /// Total number of P operations on `sem` in the whole trace.
  std::uint32_t sem_p_total(ObjectId sem) const { return sem_p_total_[sem]; }
  /// D-edge predecessors of `e` (the stepper's F3 gate), for the
  /// source-set selector's necessary enabling sets.
  const std::vector<EventId>& dep_preds(EventId e) const {
    return dpreds_[e];
  }

 private:
  const Trace* trace_;
  std::size_t n_;
  std::size_t num_procs_;
  std::vector<DynamicBitset> dep_;  ///< symmetric n x n dependence
  /// max index_in_process over events of process q dependent with event
  /// a, or -1; indexed [a * num_procs_ + q].
  std::vector<std::int64_t> max_dep_index_;
  /// One word per event: the processes holding a dependent event.
  std::vector<std::uint64_t> dep_proc_mask_;
  std::vector<DynamicBitset> hard_dep_;  ///< data conflicts + D edges
  std::vector<std::int64_t> max_hard_index_;  ///< [a * num_procs_ + q]
  std::vector<std::int64_t> sem_p_max_;   ///< [sem * num_procs_ + q]
  std::vector<std::int64_t> sem_v_max_;   ///< [sem * num_procs_ + q]
  std::vector<std::int64_t> ev_post_max_;   ///< [var * num_procs_ + q]
  std::vector<std::int64_t> ev_clear_max_;  ///< [var * num_procs_ + q]
  std::vector<std::int64_t> ev_wait_max_;   ///< [var * num_procs_ + q]
  std::vector<std::uint32_t> sem_p_total_;
  std::vector<std::vector<EventId>> dpreds_;
};

/// State-aware (conditional) independence over the static relation.
/// `tracker_sensitive` distinguishes engines whose results depend on the
/// causal tracker's state (class enumeration: token queues, establisher
/// edges) from engines that only need stepper-state commutation
/// (deadlock search):
///
///   pair            tracker-sensitive condition      untracked condition
///   V/V   (same s)  count(s) >= remaining P ops      always
///   V/P   (same s)  non-binary and count(s) >= 1     same
///   Post/Post (v)   posted(v)                        always
///   Post/Wait (v)   posted(v)                        always
///   Clear/Clear     always                           always
///
/// Tracker-sensitive proofs: V/V — pops on a semaphore are fixed by the
/// trace, so once the current count covers every remaining P, no token
/// pushed from here on is ever consumed and the FIFO queue order of the
/// two V's is causally invisible; V/P — under FIFO attribution the k-th
/// P on a semaphore attributes to the (k - initial)-th pushed V in push
/// order, and swapping an adjacent V/P changes neither ranking, so the
/// swap is causally invisible whenever a token is already present (the P
/// does not need THIS V) and no V can clamp (non-binary — a clamped V
/// pushes nothing, so the two orders reach different states); Post/Post
/// and Post/Wait — a Post on an already-posted variable is a no-op (the
/// establisher is unchanged), so order does not matter; Clear/Clear —
/// both leave the flag down and no establisher.  P/P is NEVER excused:
/// the swap exchanges which P takes which token rank (tracked), and the
/// closure condition would not be monotone (a later P can fire with one
/// token left, where P/P does not commute).  Untracked proofs: each pair
/// reaches the same stepper state from ANY state where both are enabled,
/// and neither side disables the other.  Pairs with a hard (data/D)
/// dependence are never excused.  All conditions are pure functions of
/// the stepper state — exactly what keeps (state, sleep)-keyed dedup
/// deterministic.
class DynamicIndependence {
 public:
  DynamicIndependence(const IndependenceRelation* rel, bool tracker_sensitive)
      : rel_(rel), tracked_(tracker_sensitive) {}

  const IndependenceRelation& relation() const { return *rel_; }
  bool tracker_sensitive() const { return tracked_; }

  /// Do the remaining P ops on `sem` all have tokens already available?
  bool surplus_tokens(const TraceStepper& s, ObjectId sem) const {
    const std::uint32_t remaining =
        rel_->sem_p_total(sem) - s.executed_p(sem);
    return s.sem_count(sem) >= static_cast<int>(remaining);
  }

  /// True when the statically dependent pair (a, b) provably commutes at
  /// the stepper's current state (see the class comment for the table).
  bool excused(const TraceStepper& s, EventId a, EventId b) const {
    const Trace& trace = rel_->trace();
    const Event& ea = trace.event(a);
    const Event& eb = trace.event(b);
    if (ea.process == eb.process) return false;
    if (rel_->hard_dependent(a, b)) return false;
    if (is_semaphore_op(ea.kind) && is_semaphore_op(eb.kind) &&
        ea.object == eb.object) {
      if (ea.kind == EventKind::kSemV && eb.kind == EventKind::kSemV) {
        return !tracked_ || surplus_tokens(s, ea.object);
      }
      if (ea.kind == EventKind::kSemP && eb.kind == EventKind::kSemP) {
        return false;  // P/P compete for tokens (and swap attribution)
      }
      // V/P: commutes exactly when the P does not need this V — a token
      // is already present — and the semaphore is not binary (a clamped
      // V pushes nothing, so the two orders reach different states).
      return !trace.semaphores()[ea.object].binary &&
             s.sem_count(ea.object) >= 1;
    }
    if (is_event_op(ea.kind) && is_event_op(eb.kind) &&
        ea.object == eb.object) {
      if (ea.kind == EventKind::kClear && eb.kind == EventKind::kClear) {
        return true;
      }
      if (ea.kind == EventKind::kClear || eb.kind == EventKind::kClear) {
        return false;  // Clear/Post and Clear/Wait: flag outcome flips
      }
      // Post/Post and Post/Wait (Wait/Wait is statically independent).
      return !tracked_ || s.posted(ea.object);
    }
    return false;
  }

  bool independent_at(const TraceStepper& s, EventId a, EventId b) const {
    return rel_->independent(a, b) || excused(s, a, b);
  }

  /// Closure test for the source-set selector: does process `q` still
  /// hold an unexecuted event dependent with head `a` that is NOT
  /// dynamically excused at the current state?  Only monotone conditions
  /// are consulted (see the file comment), so a `false` here stays false
  /// along every P-avoiding run.  `excused_ctr`, when non-null, counts
  /// static dependencies the dynamic conditions waived.
  bool process_blocks(const TraceStepper& s, EventId a, ProcId q,
                      std::uint64_t* excused_ctr) const {
    const Event& ea = rel_->trace().event(a);
    const auto pos = static_cast<std::int64_t>(s.position(q));
    if (rel_->process_has_hard_dep_after(a, q, s.position(q))) return true;
    switch (ea.kind) {
      case EventKind::kSemP:
        if (rel_->sem_p_max(ea.object, q) >= pos) return true;
        if (rel_->sem_v_max(ea.object, q) >= pos) {
          // V/P: the head P is enabled, so a token is present, and only
          // other P's (every holder of which joins W) can drain it —
          // the pairwise diamond holds at every reachable fire state.
          // Binary semaphores are excluded (clamped V's).
          if (rel_->trace().semaphores()[ea.object].binary ||
              s.sem_count(ea.object) < 1) {
            return true;
          }
          if (excused_ctr != nullptr) ++*excused_ctr;
        }
        return false;
      case EventKind::kSemV:
        if (rel_->sem_p_max(ea.object, q) >= pos) {
          // P/V mirror: with a token already present, q's P's can only
          // fire at states with a token — where the swap diamond holds.
          if (rel_->trace().semaphores()[ea.object].binary ||
              s.sem_count(ea.object) < 1) {
            return true;
          }
          if (excused_ctr != nullptr) ++*excused_ctr;
        }
        if (rel_->sem_v_max(ea.object, q) >= pos) {
          if (tracked_ && !surplus_tokens(s, ea.object)) return true;
          if (excused_ctr != nullptr) ++*excused_ctr;
        }
        return false;
      case EventKind::kPost:
        if (rel_->ev_clear_max(ea.object, q) >= pos) return true;
        if (rel_->ev_post_max(ea.object, q) >= pos ||
            rel_->ev_wait_max(ea.object, q) >= pos) {
          if (tracked_ && !s.posted(ea.object)) return true;
          if (excused_ctr != nullptr) ++*excused_ctr;
        }
        return false;
      case EventKind::kClear:
        if (rel_->ev_post_max(ea.object, q) >= pos ||
            rel_->ev_wait_max(ea.object, q) >= pos) {
          return true;
        }
        if (rel_->ev_clear_max(ea.object, q) >= pos &&
            excused_ctr != nullptr) {
          ++*excused_ctr;
        }
        return false;
      case EventKind::kWait:
        if (rel_->ev_clear_max(ea.object, q) >= pos) return true;
        if (rel_->ev_post_max(ea.object, q) >= pos) {
          if (tracked_ && !s.posted(ea.object)) return true;
          if (excused_ctr != nullptr) ++*excused_ctr;
        }
        return false;
      default:
        // Cross-process dependences of other kinds are all hard.
        return false;
    }
  }

  /// Necessary enabling set for a DISABLED head `a`: processes such that
  /// any run from the current state that ever enables `a` must first
  /// execute an event of one of them.  The first blocking condition (in
  /// a fixed order) decides; an EMPTY result means `a` is permanently
  /// disabled from this state and constrains nothing.
  void enabling_processes(const TraceStepper& s, EventId a,
                          std::vector<ProcId>& out) const {
    out.clear();
    const Trace& trace = rel_->trace();
    const Event& ea = trace.event(a);
    if (ea.index_in_process == 0) {
      const EventId creator = trace.process(ea.process).creating_fork;
      if (creator != kNoEvent && !s.executed(creator)) {
        out.push_back(trace.event(creator).process);
        return;
      }
    }
    switch (ea.kind) {
      case EventKind::kSemP:
        if (s.sem_count(ea.object) <= 0) {
          // The count must rise, so some other process's V must run.
          for (ProcId q = 0; q < trace.num_processes(); ++q) {
            if (q == ea.process) continue;
            if (rel_->sem_v_max(ea.object, q) >=
                static_cast<std::int64_t>(s.position(q))) {
              out.push_back(q);
            }
          }
          return;
        }
        break;
      case EventKind::kWait:
        if (!s.posted(ea.object)) {
          for (ProcId q = 0; q < trace.num_processes(); ++q) {
            if (q == ea.process) continue;
            if (rel_->ev_post_max(ea.object, q) >=
                static_cast<std::int64_t>(s.position(q))) {
              out.push_back(q);
            }
          }
          return;
        }
        break;
      case EventKind::kJoin: {
        const auto child = static_cast<ProcId>(ea.object);
        if (s.position(child) < trace.program_order(child).size()) {
          out.push_back(child);
          return;
        }
        const EventId creator = trace.process(child).creating_fork;
        if (creator != kNoEvent && !s.executed(creator)) {
          out.push_back(trace.event(creator).process);
          return;
        }
        break;
      }
      default:
        break;
    }
    if (s.respects_dependences()) {
      for (const EventId pred : rel_->dep_preds(a)) {
        if (!s.executed(pred)) {
          out.push_back(trace.event(pred).process);
          return;
        }
      }
    }
  }

 private:
  const IndependenceRelation* rel_;
  bool tracked_;
};

/// Per-engine scratch for source-set selection (ReductionMode::
/// kSourceWakeup; the construction is in the file comment).  Disabled
/// heads pull in their necessary enabling set, and dependent-process
/// tests go through the dynamic (state-aware) independence oracle.  The
/// returned set P is the ENABLED next events of the closure's process
/// set W; candidates are scored by (|P|, |W|), smallest wins.  With at
/// most 64 processes the closure runs word-parallel: candidate processes
/// for each head come from one AND of the head's dependent-process mask
/// with the still-active, not-yet-in-W mask; beyond 64 it scans every
/// process.  Deterministic: a pure function of the stepper state.
class SourceSetSelector {
 public:
  SourceSetSelector(const IndependenceRelation* indep,
                    const DynamicIndependence* dyn)
      : indep_(indep),
        dyn_(dyn),
        masked_(indep != nullptr && indep->has_proc_masks()) {}

  /// Writes into `out` a source subset of `enabled` (the state's full
  /// enabled list in process-id order, non-empty), preserving that
  /// order.  Never empty: the chosen seed is always in its own P.
  /// `excused_ctr`, when non-null, accumulates dynamic excusals.
  void select(const TraceStepper& stepper, const std::vector<EventId>& enabled,
              std::vector<EventId>& out, std::uint64_t* excused_ctr) {
    const Trace& trace = stepper.trace();
    const std::size_t num_procs = indep_->num_processes();
    std::uint64_t active = 0;
    if (masked_) {
      for (ProcId q = 0; q < num_procs; ++q) {
        if (stepper.next_of(q) != kNoEvent) active |= std::uint64_t{1} << q;
      }
    }
    best_.clear();
    std::size_t best_heads = 0;
    for (const EventId seed : enabled) {
      std::uint64_t w_mask = 0;
      if (!masked_) in_w_.assign(num_procs, false);
      w_.clear();
      add_process(trace.event(seed).process, w_mask);
      for (std::size_t head = 0; head < w_.size(); ++head) {
        const EventId a = stepper.next_of(w_[head]);
        if (a == kNoEvent) continue;  // finished process: nothing to add
        if (!stepper.enabled(a)) {
          // A disabled head never runs before its enabling set does, so
          // only the enabling set joins W (no dependent-closure needed).
          dyn_->enabling_processes(stepper, a, procs_scratch_);
          for (const ProcId q : procs_scratch_) add_process(q, w_mask);
          continue;
        }
        if (masked_) {
          std::uint64_t cand = indep_->dep_proc_mask(a) & active & ~w_mask;
          while (cand != 0) {
            const ProcId q = static_cast<ProcId>(std::countr_zero(cand));
            cand &= cand - 1;
            if (!indep_->process_has_dependent_after(a, q,
                                                     stepper.position(q))) {
              continue;
            }
            if (dyn_->process_blocks(stepper, a, q, excused_ctr)) {
              add_process(q, w_mask);
            }
          }
          continue;
        }
        for (ProcId q = 0; q < num_procs; ++q) {
          if (in_w_[q] || stepper.next_of(q) == kNoEvent) continue;
          if (!indep_->process_has_dependent_after(a, q,
                                                   stepper.position(q))) {
            continue;
          }
          if (dyn_->process_blocks(stepper, a, q, excused_ctr)) {
            add_process(q, w_mask);
          }
        }
      }
      std::size_t heads = 0;
      for (const ProcId p : w_) {
        const EventId a = stepper.next_of(p);
        if (a != kNoEvent && stepper.enabled(a)) ++heads;
      }
      if (best_.empty() || heads < best_heads ||
          (heads == best_heads && w_.size() < best_.size())) {
        best_ = w_;
        best_heads = heads;
      }
      if (best_heads == 1) break;
    }
    out.clear();
    for (const EventId e : enabled) {
      if (std::find(best_.begin(), best_.end(), trace.event(e).process) !=
          best_.end()) {
        out.push_back(e);
      }
    }
  }

 private:
  void add_process(ProcId q, std::uint64_t& w_mask) {
    if (masked_) {
      const std::uint64_t bit = std::uint64_t{1} << q;
      if ((w_mask & bit) != 0) return;
      w_mask |= bit;
    } else {
      if (in_w_[q]) return;
      in_w_[q] = true;
    }
    w_.push_back(q);
  }

  const IndependenceRelation* indep_;
  const DynamicIndependence* dyn_;
  bool masked_;
  std::vector<ProcId> w_;
  std::vector<ProcId> best_;
  std::vector<bool> in_w_;
  std::vector<ProcId> procs_scratch_;
};

// ----------------------------------------------------------------------
// Sleep-set plumbing shared by the engines and the explorer front-ends
// (root claims must fold exactly like engine claims).

inline constexpr std::uint64_t kSleepHashSeed = 0x632be59bd9b4e019ull;
inline constexpr std::uint64_t kSleepHashSalt = 0xd6e8feb86659fd93ull;
inline constexpr std::uint64_t kSleepFoldSalt = 0xa0761d6478bd642full;
inline constexpr std::uint64_t kSleepKeySentinel = 0xe7037ed1a0b428dbull;

/// Order-sensitive hash of a sorted sleep set.
inline std::uint64_t sleep_set_hash(const std::vector<EventId>& sleep) {
  std::uint64_t h = kSleepHashSeed;
  for (const EventId e : sleep) h = hash_mix(kSleepHashSalt, h, e);
  return h;
}

/// Folds the sleep-set hash into a state fingerprint.  Under reduction
/// the dedup/memo key is the (state, sleep set) pair: the reduced
/// subtree below a node is a deterministic function of exactly that
/// pair, so claims keyed this way prune only genuinely identical
/// subtrees (the classical sleep-sets-with-state-matching pitfall is
/// avoided by construction).
inline std::uint64_t fold_sleep(std::uint64_t fp, std::uint64_t sleep_hash) {
  return hash_mix(kSleepFoldSalt, fp, sleep_hash);
}

/// Extends a debug collision-check payload with the sleep set, matching
/// fold_sleep's contribution to the fingerprint.
inline void extend_key_with_sleep(const std::vector<EventId>& sleep,
                                  std::vector<std::uint64_t>& key) {
  key.push_back(kSleepKeySentinel ^ sleep.size());
  for (const EventId e : sleep) key.push_back(e);
}

/// The sleep set a child inherits: keep every event of the parent's
/// sleep set and every earlier-explored sibling that is independent of
/// the chosen event, sorted by id (sleep and earlier siblings are
/// disjoint — siblings are drawn from P \ sleep).
inline void child_sleep_set(const IndependenceRelation& indep,
                            const std::vector<EventId>& sleep,
                            const std::vector<EventId>& selected,
                            std::size_t chosen_index,
                            std::vector<EventId>& out) {
  const EventId chosen = selected[chosen_index];
  out.clear();
  for (const EventId x : sleep) {
    if (indep.independent(x, chosen)) out.push_back(x);
  }
  for (std::size_t j = 0; j < chosen_index; ++j) {
    if (indep.independent(selected[j], chosen)) out.push_back(selected[j]);
  }
  std::sort(out.begin(), out.end());
}

// ----------------------------------------------------------------------
// Wakeup frames (ReductionMode::kSourceWakeup).
//
// Under dynamic independence the sleep set a child inherits depends on
// independence evaluated AT the parent state.  Each engine therefore
// keeps one wakeup frame per DFS depth: for every event x in (sleep ∪
// selected), a bitmask over the selected indices j with x
// independent-of-selected[j] at that state.  The frame is computed once
// per expanded state and read by the child-sleep computation of each of
// its children.  Frames need selected.size() <= 64; beyond that engines
// fall back to the static child_sleep_set — still sound, just coarser,
// and a deterministic function of the state either way.

/// Fills `masks` (one word per event of sleep ++ selected; bit j =
/// independent of selected[j] at the stepper's state).  Leaves `masks`
/// empty — the static fallback — past 64 selected events.
inline void compute_wakeup_masks(const DynamicIndependence& dyn,
                                 const TraceStepper& stepper,
                                 const std::vector<EventId>& sleep,
                                 const std::vector<EventId>& selected,
                                 std::vector<std::uint64_t>& masks,
                                 std::uint64_t* excused_ctr) {
  if (selected.size() > 64) {
    masks.clear();
    return;
  }
  const IndependenceRelation& rel = dyn.relation();
  masks.assign(sleep.size() + selected.size(), 0);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const EventId x = i < sleep.size() ? sleep[i] : selected[i - sleep.size()];
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < selected.size(); ++j) {
      const EventId y = selected[j];
      if (x == y) continue;
      if (rel.independent(x, y)) {
        m |= std::uint64_t{1} << j;
      } else if (dyn.excused(stepper, x, y)) {
        m |= std::uint64_t{1} << j;
        if (excused_ctr != nullptr) ++*excused_ctr;
      }
    }
    masks[i] = m;
  }
}

/// child_sleep_set evaluated through a wakeup frame: keep every sleeping
/// event and every earlier sibling whose frame bit for the chosen index
/// is set, sorted by id.  `sleep` must be the frame's sleep set.
inline void child_sleep_from_masks(const std::vector<EventId>& sleep,
                                   const std::vector<EventId>& selected,
                                   std::size_t chosen_index,
                                   const std::vector<std::uint64_t>& masks,
                                   std::vector<EventId>& out) {
  const std::uint64_t bit = std::uint64_t{1} << chosen_index;
  out.clear();
  for (std::size_t i = 0; i < sleep.size(); ++i) {
    if ((masks[i] & bit) != 0) out.push_back(sleep[i]);
  }
  for (std::size_t j = 0; j < chosen_index; ++j) {
    if ((masks[sleep.size() + j] & bit) != 0) out.push_back(selected[j]);
  }
  std::sort(out.begin(), out.end());
}

/// The sleep set child `chosen_index` inherits: through the state's
/// wakeup frame when it has one, else through the static relation.
inline void child_sleep(const IndependenceRelation& indep,
                        const std::vector<EventId>& sleep,
                        const std::vector<EventId>& selected,
                        std::size_t chosen_index,
                        const std::vector<std::uint64_t>& masks,
                        std::vector<EventId>& out) {
  if (masks.empty()) {
    child_sleep_set(indep, sleep, selected, chosen_index, out);
  } else {
    child_sleep_from_masks(sleep, selected, chosen_index, masks, out);
  }
}

/// Drops the events of the (sorted) sleep set from `selected`, keeping
/// order: every schedule through them is equivalent to one already
/// explored from an earlier sibling of an ancestor.
inline void drop_sleeping(const std::vector<EventId>& sleep,
                          std::vector<EventId>& selected,
                          std::uint64_t& pruned) {
  if (sleep.empty()) return;
  std::size_t kept = 0;
  for (const EventId e : selected) {
    if (std::binary_search(sleep.begin(), sleep.end(), e)) {
      ++pruned;
    } else {
      selected[kept++] = e;
    }
  }
  selected.resize(kept);
}

}  // namespace evord::search
