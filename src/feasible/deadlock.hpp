// Could-have-deadlocked analysis.
//
// A trace is an observed COMPLETED execution, but other feasible
// schedules of the same events may wedge: a reachable state with
// unexecuted events and nothing enabled (a Wait whose posts were all
// cleared, a P whose tokens were consumed by rival P's, a join whose
// child is stuck...).  The paper notes this for its event-style gadgets
// ("Although these processes can deadlock").  This module decides
// whether any feasible schedule prefix gets stuck, with a witness.
//
// Implemented as a depth-first search over the same state space as
// Engine A that visits each distinct state once, pruning revisits
// through a visited-state set (exponential in the worst case, like
// everything interesting here).
#pragma once

#include <cstdint>
#include <vector>

#include "feasible/stepper.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"

namespace evord {

/// Budget and reduction come from search::SearchOptions; this explorer
/// honours max_states, time_budget_seconds, max_memory_bytes and
/// reduction.  It decides reachability of stuck states, not of complete
/// schedules, so max_schedules is ignored.  It always runs serially on
/// the calling thread, so num_threads and steal are ignored too: the
/// shortest-witness rule would make workers re-explore the states their
/// regions share instead of splitting them (docs/SEARCH.md §4).
///
/// `reduction` is ON by default (kSourceWakeup — source sets + wakeup
/// frames + stepper-state dynamic independence): the reduction preserves
/// every reachable transition-less state, so the verdict and the
/// distinct-stuck-state count are exact and the witness is a valid stuck
/// prefix (though not necessarily the globally shortest one — turn
/// reduction off for that).  Reduced witnesses are canonicalized after
/// the search: the prefix is re-permuted to the greedy
/// smallest-event-first order over its own event set when that
/// permutation provably reaches the same stuck state, so the reported
/// witness does not depend on WHICH equivalent interleaving the reduced
/// walk happened to explore.
struct DeadlockOptions : search::SearchOptions {
  DeadlockOptions()
      : SearchOptions(search::kDefaultMaxStates,
                      search::ReductionMode::kSourceWakeup) {}

  StepperOptions stepper;
};

struct DeadlockReport {
  /// True iff some valid schedule prefix reaches a stuck state.
  bool can_deadlock = false;
  /// A shortest-found schedule prefix ending in a stuck state.
  std::vector<EventId> witness_prefix;
  /// Number of distinct stuck states encountered.
  std::uint64_t stuck_states = 0;
  std::size_t states_visited = 0;
  /// True iff a budget stopped the search (result may miss deadlocks).
  bool truncated = false;
  search::SearchStats search;  ///< unified engine statistics

  /// Approximate resident bytes (witness + search-stats vectors); the
  /// unit the service result cache charges per cached DeadlockReport.
  std::uint64_t approx_bytes() const;
};

DeadlockReport analyze_deadlocks(const Trace& trace,
                                 const DeadlockOptions& options = {});

}  // namespace evord
