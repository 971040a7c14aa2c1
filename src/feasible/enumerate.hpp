// Engine B: exhaustive enumeration of every valid complete schedule.
//
// Unlike the state-merged search (schedule_space.hpp), this engine visits
// each complete schedule individually, which is what per-execution causal
// analysis needs: two schedules through the same state can induce
// different causal orders.  The cost is exponential in general — that is
// the paper's theorem — so callers bound it with max_schedules and a time
// budget, and the tests/benches use it on deliberately small traces.
//
// The engine runs on the unified search core (search/engine.hpp), on the
// calling thread: the walk is unreduced, untracked and undeduplicated,
// and the visitor is called on the thread that asked, in DFS order.
// Budgets are strict: the visit count never exceeds max_schedules.
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

/// The budget comes from search::SearchOptions; this explorer honours
/// max_schedules, time_budget_seconds and max_memory_bytes.  It visits
/// every schedule, so it ignores `reduction` (a reduced walk would drop
/// schedules; class enumeration is the reduced explorer), and it keeps
/// no dedup store, so max_states has nothing to act on.
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

/// Called with each complete schedule; return false to stop the search.
using ScheduleVisitor =
    std::function<bool(const std::vector<EventId>& schedule)>;

/// Visits every complete schedule, in DFS order.
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
