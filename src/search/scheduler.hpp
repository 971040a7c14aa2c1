// Work-stealing scheduler for the state-space search core.
//
// The scheduler replaces the one-level root split of PR 2: instead of
// statically assigning one first-level subtree per pool slot (which
// leaves cores idle on skewed trees), every worker owns a Chase–Lev
// deque of SearchTasks.  A task is a schedule prefix to explore.
// Workers pop their own deque LIFO; when it is empty they steal FIFO
// from a seeded-random victim.  A hungry worker raises a demand flag
// that running engines poll; an engine answering the demand donates the
// *deepest* unexplored siblings of its current DFS path as new tasks
// (adaptive subtree splitting), subject to the StealOptions grain/depth
// cutoffs so the task grain stays coarse.
//
// Determinism: the tasks partition the schedule tree, so any split and
// steal pattern covers exactly the serial state space.  The two
// explorers that run here (schedule and causal-class enumeration)
// report counts and sets of schedules or classes, none of which depends
// on the order in which tasks complete.  See docs/SEARCH.md §"Parallel
// execution".
//
// Termination is lock-free: an atomic outstanding-task counter is
// incremented before each spawn and decremented after the task runs;
// workers exit when it reaches zero (no task can appear afterwards,
// because only running tasks spawn).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "search/search.hpp"
#include "trace/ids.hpp"

namespace evord::search {

struct SharedContext;
class WorkStealingScheduler;

/// One unit of search work: a schedule prefix to explore.
struct SearchTask {
  std::vector<EventId> seed;
  /// Partial-order reduction only: the sleep set of the subtree root
  /// this task replays to (sorted event ids).  Donors compute it at
  /// donation time — sleep sets are inherited along DFS edges, so a
  /// stolen subtree must start from exactly the sleep set the serial
  /// walk would carry into it; engines install it via
  /// set_initial_sleep().  Under kSourceWakeup the donor derives it
  /// from its per-depth wakeup frame (the dynamic-independence masks it
  /// computed when expanding the donated child's parent), so donation
  /// serializes the frame: the thief starts from the exact conditional
  /// sleep set the donor's in-walk child would carry, and the parallel
  /// walk stays bit-identical to serial.  Empty when reduction is off.
  std::vector<EventId> sleep;
};

/// Per-worker face of the scheduler, handed to the task runner.  The
/// engines use it to poll steal demand and donate split-off subtrees.
class WorkerHandle {
 public:
  std::size_t worker_id() const noexcept { return id_; }
  /// True iff some worker is out of work right now (relaxed load; cheap
  /// enough to poll per expanded state).
  bool split_wanted() const noexcept;
  /// Donates a task split off the one currently running; it becomes
  /// stealable immediately.
  void spawn(SearchTask task);

 private:
  friend class WorkStealingScheduler;
  WorkerHandle(WorkStealingScheduler* sched, std::size_t id)
      : sched_(sched), id_(id) {}
  WorkStealingScheduler* sched_;
  std::size_t id_;
};

/// Runs one task to completion and returns its engine's stats.  Called
/// concurrently from scheduler worker threads.
using TaskRunner = std::function<SearchStats(const SearchTask&, WorkerHandle&)>;

/// Executes `roots` — and every task split off them — on `num_workers`
/// work-stealing workers sharing `ctx` for budgets and stop requests.
/// Returns the associatively merged per-task stats with
/// SearchStats::workers filled in (per-worker scheduler counters).
/// Victim selection is seeded with `steal_seed` (results never depend
/// on it).  Rethrows the first task exception after all workers join.
SearchStats run_work_stealing(std::vector<SearchTask> roots,
                              std::size_t num_workers,
                              std::uint64_t steal_seed, SharedContext& ctx,
                              const TaskRunner& run);

/// Hard cap on worker threads: std::thread::hardware_concurrency(),
/// overridable upward via the EVORD_MAX_THREADS environment variable
/// (a testing/CI knob: the determinism stress tests must run genuinely
/// multi-threaded even on small CI boxes).
std::size_t max_worker_threads();

/// Resolves a requested worker count: 0 means "hardware concurrency",
/// and every request is clamped to max_worker_threads() so
/// oversubscription is impossible.
std::size_t resolve_num_threads(std::size_t requested);

}  // namespace evord::search
