// The exact solver: computes all six ordering relations of Table 1 by
// exhaustive analysis of F(P).
//
// Interleaving semantics uses the memoized state-space engine (one pass,
// no per-schedule work).  Causal and interval semantics enumerate
// complete schedules, deduplicate them into causal classes and accumulate
// per-class facts; with class_dedup each class arrives as the causal
// tracker's closure rows, so no causal order is rebuilt per schedule.
// Both are exponential in the worst case — Theorems 1-4 say they must
// be, assuming P != NP — so budgets apply and results carry a
// `truncated` flag.  Every semantics runs on the calling thread: the
// wall is met by pruning (class dedup, source-set reduction), the
// anytime ladder and the SAT oracle, not by threads.
#pragma once

#include <cstdint>

#include "ordering/relations.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"

namespace evord {

/// Budget and reduction come from search::SearchOptions.  Every
/// semantics runs on the calling thread.  Interleaving semantics runs
/// the memoized state-space sweep
/// (ScheduleSpaceOptions) and honours max_states, time_budget_seconds
/// and max_memory_bytes — never `reduction`, whose matrices need the
/// unreduced sweep.  Causal and interval semantics enumerate schedules
/// (ClassEnumOptions with class_dedup, EnumerateOptions without) and
/// honour max_schedules, time_budget_seconds and max_memory_bytes; the
/// class_dedup path also honours `reduction` and ignores max_states for
/// good (max_schedules is the causal budget), and the plain path ignores
/// `reduction` for good (schedules_seen counts every schedule).
///
/// `reduction` defaults to kSourceWakeup: it preserves the set of
/// complete causal classes (pruned schedules are commuting permutations
/// of explored ones), so the relation matrices, causal_classes and
/// feasible_empty are unchanged; only `schedules_seen` shrinks.
struct ExactOptions : search::SearchOptions {
  ExactOptions()
      : SearchOptions(search::kDefaultMaxStates,
                      search::ReductionMode::kSourceWakeup) {}

  /// Enforce F3 (shared-data dependences constrain the schedules).
  /// Disable for the paper's §5.3 "ignore dependences" variant.
  bool respect_dependences = true;

  /// Include data edges in each execution's causal order (the paper's
  /// full temporal reading).  Race detection sets this to false so that
  /// "concurrent" means "not ordered by synchronization", while F3 above
  /// still restricts WHICH executions are feasible.  Only affects causal
  /// and interval semantics.
  bool causal_data_edges = true;

  /// Causal/interval engine: prune schedule prefixes whose state AND
  /// induced causal order were already explored (one representative per
  /// causal-class prefix; see ordering/class_enumerate.hpp).  Exponentially
  /// faster on traces where many schedules share a causal order; results
  /// are identical (tested), only `schedules_seen` shrinks.
  bool class_dedup = true;
};

/// Computes all six relations under the chosen semantics.
OrderingRelations compute_exact(const Trace& trace, Semantics semantics,
                                const ExactOptions& options = {});

}  // namespace evord
