// Work-stealing scheduler for plain schedule enumeration.
//
// Every sweep starts serial: the calling thread walks the root task (the
// empty schedule prefix) as worker 0, and its engine polls
// WorkerHandle::split_wanted() at every DFS entry.  Once that walk has
// made kGrowAfterEntries entries, the poll starts the num_workers - 1
// helper threads.  Each worker owns a Chase–Lev deque of SearchTasks; a
// task is a schedule prefix to explore.  Workers pop their own deque
// LIFO; when it is empty they steal FIFO from a seeded-random victim.  A
// hungry worker raises a demand flag that running engines poll; an
// engine answering the demand donates the *deepest* unexplored siblings
// of its current DFS path as new tasks (adaptive subtree splitting),
// subject to the StealOptions grain/depth cutoffs so the task grain stays
// coarse.  The root walk also donates at the entry that grows the sweep,
// so the helpers find work queued when they arrive.  A sweep that ends
// below the threshold starts no thread and allocates no deque and no
// task.
//
// Determinism: the tasks partition the schedule tree, so any split and
// steal pattern covers exactly the serial schedules.  The one explorer
// that runs here, plain schedule enumeration, walks unreduced with no
// tracker and no dedup store, so a task is its seed prefix alone and no
// store is shared between workers; its counts do not depend on the
// order in which tasks complete.  See docs/SEARCH.md §4.
//
// Termination is lock-free: an atomic outstanding-task counter is
// incremented before each spawn and decremented after the task runs;
// workers exit when it reaches zero (no task can appear afterwards,
// because only running tasks spawn).
#pragma once

#include <atomic>
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
};

/// DFS entries the calling thread's walk makes before a multi-worker
/// sweep starts its helpers: about where a 2-worker causal sweep of
/// cold-shaped traces, parallel from its first entry, stopped costing
/// more than the serial walk when causal sweeps still ran workers
/// (docs/SEARCH.md §4 has the measured table).
inline constexpr std::uint64_t kGrowAfterEntries = 16384;

/// Per-worker face of the scheduler, handed to the task runner.  The
/// engines use it to poll steal demand and donate split-off subtrees.
class WorkerHandle {
 public:
  std::size_t worker_id() const noexcept { return id_; }
  /// True iff some worker is out of work right now (relaxed load; cheap
  /// enough to poll per expanded state).  Until the sweep grows, worker
  /// 0's handle counts these calls instead; the kGrowAfterEntries-th
  /// starts the helpers and asks for a split at once, so work is queued
  /// before they arrive.
  bool split_wanted() {
    if (grow_countdown_ != 0 && --grow_countdown_ == 0) {
      grow();
      return true;
    }
    return hungry_->load(std::memory_order_relaxed) > 0;
  }
  /// Donates a task split off the one currently running; it becomes
  /// stealable immediately.
  void spawn(SearchTask task);

 private:
  friend class WorkStealingScheduler;
  WorkerHandle(WorkStealingScheduler* sched, std::size_t id,
               const std::atomic<std::uint32_t>* hungry,
               std::uint64_t grow_countdown)
      : sched_(sched),
        id_(id),
        hungry_(hungry),
        grow_countdown_(grow_countdown) {}
  void grow();

  WorkStealingScheduler* sched_;
  std::size_t id_;
  const std::atomic<std::uint32_t>* hungry_;
  std::uint64_t grow_countdown_;
};

/// Runs one task to completion and returns its engine's stats.  Called
/// concurrently from scheduler worker threads.
using TaskRunner = std::function<SearchStats(const SearchTask&, WorkerHandle&)>;

/// Runs one enumeration sweep: the root task (empty seed) on the calling
/// thread as worker 0, and — once that walk passes kGrowAfterEntries DFS
/// entries with `num_workers` > 1 — every task split off it on
/// `num_workers` work-stealing workers sharing `ctx` for budgets and stop
/// requests.  Returns the associatively merged per-task stats;
/// SearchStats::workers holds the per-worker scheduler counters of a
/// sweep that grew and is empty for one that did not.  Victim selection
/// is seeded with `steal_seed` (results never depend on it).  Rethrows
/// the first task exception after all workers join.
SearchStats run_work_stealing(std::size_t num_workers,
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
