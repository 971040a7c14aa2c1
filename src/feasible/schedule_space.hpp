// Engine A: memoized search over the *state space* of valid schedules.
//
// The states of a trace under partial replay form a DAG (every step
// executes one more event), so a memoized DFS visits each distinct state
// once even though the number of schedules through it is exponential.
// One sweep answers the interleaving-semantics questions:
//
//   * is F(P) non-empty (does any valid complete schedule exist)?
//   * for every ordered pair (a, b): does some valid complete schedule
//     run a before b?  ("can-precede", the could-have-happened-before
//     relation under interleaving semantics; its complement transposed is
//     must-have-happened-before).
//   * optionally, which pairs can run back-to-back from a completable
//     state (the coexistence matrix).
//
// The sweep marks can_precede[b] |= done(s) at every completable state s
// from which b can execute into a completable successor — a bit-parallel
// union, so the whole matrix costs one pass over the state space.
//
// The state space itself is exponential in the worst case (that is
// Theorem 1); max_states and the time budget bound the work, and results
// are flagged `truncated` when the bound was hit (can_precede is then an
// under-approximation).  Every sweep runs serially, unreduced, and owns
// its memo: the memo lives exactly as long as the run.
#pragma once

#include <cstddef>
#include <vector>

#include "feasible/stepper.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"

namespace evord {

/// The budget comes from search::SearchOptions; this explorer honours
/// max_states, time_budget_seconds and max_memory_bytes.  It has no
/// complete-schedule budget: max_schedules is ignored.  It always runs
/// serially on the calling thread, so num_threads and steal are ignored
/// too: memoizing workers would duplicate each other's walks instead of
/// splitting them (docs/SEARCH.md §4).  It never reduces, so
/// `reduction` is ignored as well: a reduced walk marks only the
/// children it expands, so can_precede / can_coexist would become
/// under-approximations.
struct ScheduleSpaceOptions : search::SearchOptions {
  ScheduleSpaceOptions()
      : SearchOptions(search::kDefaultMaxStates, search::ReductionMode::kOff) {}

  StepperOptions stepper;
  /// Also compute the coexistence matrix: can_coexist(x, y) iff some
  /// completable state has x and y simultaneously enabled and executing
  /// them back-to-back (in some order) still completes.  This is the
  /// operational "could have run at the same instant" relation — for
  /// conflicting accesses, a simultaneous-access race.  Adds O(p^2)
  /// memo lookups per state.
  bool build_coexist = false;
};

struct CanPrecedeResult {
  /// True iff at least one valid complete schedule exists.
  bool feasible_nonempty = false;
  /// True iff a budget was exhausted; can_precede is then partial.
  bool truncated = false;
  std::size_t states_visited = 0;
  /// can_precede[b].test(a) == some valid complete schedule runs a
  /// strictly before b.
  std::vector<DynamicBitset> can_precede;
  /// Only with options.build_coexist: symmetric simultaneous-enabledness
  /// relation (see ScheduleSpaceOptions).
  std::vector<DynamicBitset> can_coexist;
  /// Unified engine statistics (dedup hits, memo bytes, stop reason...).
  search::SearchStats search;
};

/// Full can-precede sweep (see file comment).
CanPrecedeResult compute_can_precede(const Trace& trace,
                                     const ScheduleSpaceOptions& options = {});

}  // namespace evord
