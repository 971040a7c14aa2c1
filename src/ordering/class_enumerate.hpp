// Causal-class enumeration with prefix deduplication.
//
// The plain schedule enumerator (feasible/enumerate.hpp) walks every
// valid schedule; the causal exact solver then deduplicates their causal
// orders.  Exponentially many schedules can share one causal order, so a
// lot of that walk is wasted.  This enumerator prunes it: two schedule
// prefixes with
//   * the same scheduling state (positions, event flags, binary counts),
//   * the same causal order over the executed events,
//   * the same outstanding semaphore token producers (FIFO queues), and
//   * the same establishing Posts
// have exactly the same set of causal-class completions, so only one of
// them needs exploring.  The visitor still receives complete schedules,
// at least one per distinct complete causal class (possibly more, never
// one per redundant schedule), each with its causal order: the strict
// ancestor rows the tracker maintained along the walk, so callers never
// rebuild the closure from the schedule.
//
// This is the evord analogue of partial-order reduction: sound for
// class-level accumulation (any/all over causal orders), unsound for
// schedule counting — use the plain enumerator for that.
//
// The sweep runs on the calling thread, as every search does: one
// engine, one causal tracker and one prefix store per call.  Pruning,
// not threads, is what keeps it small (docs/SEARCH.md §4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "feasible/stepper.hpp"
#include "ordering/causal.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"

namespace evord::search {
class PackedStateRegistry;
}

namespace evord {

/// Budget and reduction come from search::SearchOptions; this explorer
/// honours all of them.  max_states caps distinct prefixes (prefixes
/// past it
/// are still claimed and counted but not expanded), and max_schedules
/// caps complete schedules delivered to the visitor.
///
/// `reduction` is ON by default (kSourceWakeup — source sets + wakeup
/// frames + tracked dynamic independence): class enumeration accumulates
/// over causal classes, and the reduction preserves every complete
/// causal class (the pruned schedules are causal-equivalent permutations
/// of explored ones — the tracked excusals commute only pairs whose
/// order the CausalTracker cannot observe) and every deadlocked
/// frontier.  Schedule COUNTS drop under reduction — use the plain
/// enumerator for counting.
struct ClassEnumOptions : search::SearchOptions {
  ClassEnumOptions()
      : SearchOptions(/*default_max_states=*/0,
                      search::ReductionMode::kSourceWakeup) {}

  StepperOptions stepper;
  CausalOptions causal;
  /// Optional caller-owned store (e.g. an exact solver's class-dedup
  /// set) attached to the search's memory accountant for the duration of
  /// the run, so its footprint counts against max_memory_bytes alongside
  /// the prefix store; detached before return.
  search::PackedStateRegistry* charge_store = nullptr;
};

struct ClassEnumStats {
  std::uint64_t schedules_visited = 0;  ///< complete schedules delivered
  std::uint64_t prefixes_pruned = 0;    ///< duplicate prefixes skipped
  std::uint64_t deadlocked_prefixes = 0;
  std::size_t distinct_prefixes = 0;
  bool truncated = false;
  bool stopped_by_visitor = false;
  search::SearchStats search;  ///< unified engine statistics
};

/// Called with one complete schedule and its causal order as strict
/// ancestor rows: `ancestors[b]` = {a : a -> b}, the transpose of
/// causal_closure(trace, schedule, options.causal) (tested).  The rows
/// are valid only during the call.  Return false to stop the search.
using ClassVisitor =
    std::function<bool(const std::vector<EventId>& schedule,
                       const std::vector<DynamicBitset>& ancestors)>;

/// Visits complete schedules covering every complete causal class.  One
/// engine walks the tree on the calling thread with one causal tracker,
/// deduplicating prefixes through one fingerprint store, so every
/// distinct prefix state is expanded exactly once and the visitor is
/// never called from another thread.
ClassEnumStats enumerate_causal_classes(const Trace& trace,
                                        const ClassEnumOptions& options,
                                        const ClassVisitor& visit);

}  // namespace evord
