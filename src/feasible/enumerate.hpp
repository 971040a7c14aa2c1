// Engine B: exhaustive enumeration of every valid complete schedule.
//
// Unlike the state-merged search (schedule_space.hpp), this engine visits
// each complete schedule individually, which is what per-execution causal
// analysis needs: two schedules through the same state can induce
// different causal orders.  The cost is exponential in general — that is
// the paper's theorem — so callers bound it with max_schedules and a time
// budget, and the tests/benches use it on deliberately small traces.
//
// The engine runs on the unified search core (search/engine.hpp).  The
// calling thread walks the schedule tree; with num_threads > 1 a walk
// that passes search::kGrowAfterEntries DFS entries starts the other
// workers of the work-stealing scheduler (search/scheduler.hpp), which
// take subtrees split off adaptively whenever a worker runs dry.  Each
// task gets its own stepper, so the visitor must be thread-safe across
// worker slots.  Budgets are strict and global: max_schedules is
// enforced through a shared atomic counter, so the combined visit count
// never exceeds it even in parallel mode.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "feasible/stepper.hpp"
#include "search/search.hpp"
#include "trace/trace.hpp"

namespace evord::search {
class PackedStateRegistry;
}

namespace evord {

/// Budget, workers and reduction come from search::SearchOptions; this
/// explorer honours max_schedules, time_budget_seconds,
/// max_memory_bytes, num_threads, steal and reduction.  It keeps no
/// dedup store, so max_states has nothing to act on.
///
/// `reduction` is OFF by default because it changes this engine's
/// contract: with kSourceWakeup only representative schedules (at least
/// one per causal class) are visited, so schedule counts drop and
/// per-schedule accumulation (e.g. "does any schedule order a before b")
/// under-approximates when a/b commute.  Feasibility ("does a complete
/// schedule exist") and deadlocked-prefix reachability remain exact, and
/// the class-preserving conditional excusals keep the set of causal
/// classes unchanged (tested in tests/por_test.cpp).
struct EnumerateOptions : search::SearchOptions {
  StepperOptions stepper;
  /// Optional caller-owned store (e.g. an exact solver's class-dedup
  /// set) attached to the search's memory accountant for the duration of
  /// the run, so its footprint counts against max_memory_bytes; detached
  /// before return.
  search::PackedStateRegistry* charge_store = nullptr;
};

struct EnumerateStats {
  std::uint64_t schedules = 0;           ///< complete schedules visited
  std::uint64_t deadlocked_prefixes = 0; ///< maximal incomplete prefixes
  bool truncated = false;                ///< a budget stopped the search
  bool stopped_by_visitor = false;       ///< the visitor returned false
  search::SearchStats search;            ///< unified engine statistics
};

/// Called with each complete schedule and the slot of the worker that
/// found it (in [0, resolved thread count); always 0 when serial or
/// when the sweep never grew); return
/// false to stop the search.  Calls with the same slot never overlap, so
/// callers can keep per-slot accumulators and merge without locking; it
/// must otherwise be thread-safe across slots.
using ScheduleVisitor = std::function<bool(
    std::size_t slot, const std::vector<EventId>& schedule)>;

/// Visits every complete schedule, on options.num_threads workers
/// (0 = hardware concurrency; clamped to search::max_worker_threads()).
EnumerateStats enumerate_schedules(const Trace& trace,
                                   const EnumerateOptions& options,
                                   const ScheduleVisitor& visit);

/// Convenience: the first complete schedule satisfying `pred`, if any
/// exists within the budget.
std::optional<std::vector<EventId>> find_schedule_where(
    const Trace& trace, const EnumerateOptions& options,
    const std::function<bool(const std::vector<EventId>&)>& pred);

/// Counts complete schedules (exactly if within budget).
std::uint64_t count_schedules(const Trace& trace,
                              const EnumerateOptions& options = {});

}  // namespace evord
