// Unified options and statistics for the state-space search core.
//
// Every trace-level explorer (schedule enumeration, causal-class
// enumeration, deadlock search on the generic engine in
// search/engine.hpp, and the memoized can-precede/coexist sweep in
// feasible/schedule_space.cpp) takes its budget from the SearchOptions
// and reports through the SearchStats defined here, so budgets,
// truncation provenance and dedup behaviour look the same no matter
// which analysis ran.  See docs/SEARCH.md for the tracker/visitor
// contracts and the fingerprint safety argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace evord::search {

/// Why a search stopped early (kNone == ran to natural exhaustion).
enum class StopReason : std::uint8_t {
  kNone = 0,
  kMaxStates = 1,     ///< distinct-state budget (max_states)
  kMaxTerminals = 2,  ///< terminal budget (max_schedules)
  kDeadline = 3,      ///< wall-clock time budget
  kVisitor = 4,       ///< a visitor returned false
  kMemory = 5,        ///< byte budget (max_memory_bytes) or store failure
};

const char* to_string(StopReason reason);

/// Partial-order reduction mode for the engine in search/engine.hpp.
/// Reduction explores one representative schedule per Mazurkiewicz trace
/// (events reorderable when adjacent and independent) instead of every
/// interleaving.  Sound for per-trace facts — causal classes, deadlock
/// verdicts, exact causal/interval relations — and unsound for schedule
/// counts or interleaving-semantics matrices; each explorer front-end
/// picks the default that matches its semantics (docs/SEARCH.md §POR).
enum class ReductionMode : std::uint8_t {
  /// Every interleaving: the reference the reduced walk is checked
  /// against.
  kOff = 0,
  /// Sleep sets + source sets + dynamic independence (docs/SEARCH.md
  /// §6): the source-set selector closes over *necessary enabling sets*
  /// when a closure head is disabled, and state-aware (conditional)
  /// independence reclaims commutations the static relation misses —
  /// semaphore V/V with enough surplus tokens, Post/Post and Post/Wait
  /// on an already posted variable, Clear/Clear — evaluated per state
  /// through the per-depth wakeup frames the engines maintain (and
  /// serialize across work-stealing donation).  Every transition-less
  /// state stays reachable and causal classes are preserved; the walk
  /// explores one schedule per causal class on every bench family.
  kSourceWakeup = 1,
};

const char* to_string(ReductionMode mode);

/// Work-stealing scheduler tuning, read only by the explorers that run
/// workers (see SearchOptions::num_threads).  None of these affect
/// results — the tasks partition the schedule tree, so any split pattern
/// and any victim order produce bit-identical output (the stress test in
/// tests/search_test.cpp perturbs `seed` to prove it).
struct StealOptions {
  /// Minimum number of still-unexecuted events below a donated subtree
  /// root.  Subtrees smaller than this are never split off, keeping the
  /// task grain coarse enough to amortise task setup (seed replay).
  std::size_t grain = 4;
  /// Maximum schedule depth (events executed from the initial state) at
  /// which a split may occur.  0 = no depth cutoff.
  std::size_t max_split_depth = 0;
  /// Seeds the per-worker victim-selection RNG.  Varying it perturbs the
  /// steal order without affecting results.
  std::uint64_t seed = 0;
};

/// The one budget and parallelism struct of the search core.  Every
/// explorer's options struct (EnumerateOptions, ScheduleSpaceOptions,
/// DeadlockOptions, ClassEnumOptions, ExactOptions) inherits it, so a
/// front-end hands its budget to the engines by slicing; the table in
/// docs/SEARCH.md §3 lists which explorer honours which field.  All zero
/// values mean "unlimited".
struct SearchOptions {
  SearchOptions() = default;

  /// Stop expanding new distinct states after this many (global across
  /// all workers in parallel mode).
  std::size_t max_states = 0;
  /// Stop after this many terminal (complete-schedule) visits.  Enforced
  /// strictly via a shared atomic counter: the combined visit count never
  /// exceeds the budget, serial or parallel.
  std::uint64_t max_schedules = 0;
  /// Stop after this many seconds of wall clock.
  double time_budget_seconds = 0.0;
  /// Stop once the search's charged memory — fingerprint/memo store
  /// entries, retained collision payloads, donated task descriptors,
  /// witness buffers — reaches this many bytes.  Strict and global
  /// across all workers (one shared MemoryAccountant per search, see
  /// search/memory.hpp): a budget of N caps the combined total at N,
  /// the same contract as max_states.  Engines poll per expanded state,
  /// so overshoot is bounded by one state's charge per worker.
  std::uint64_t max_memory_bytes = 0;
  /// Worker count: 0 = hardware concurrency, 1 = serial.  Clamped to
  /// max_worker_threads() (scheduler.hpp) so oversubscription is
  /// impossible.  Results never depend on it.  Only the two enumeration
  /// explorers (schedules and causal classes, and the causal/interval
  /// compute_exact built on them) run workers, and a sweep starts them
  /// only past kGrowAfterEntries DFS entries; the state-keyed explorers
  /// (the memoized sweep and deadlock search) always run serially.
  std::size_t num_threads = 1;
  /// Work-stealing knobs (grain / max_split_depth / seed); read only
  /// where num_threads is.
  StealOptions steal;
  /// Partial-order reduction.  Engines running with kSourceWakeup must
  /// be handed an IndependenceRelation (search/independence.hpp).  The
  /// memoized sweep never reduces and ignores it.
  ReductionMode reduction = ReductionMode::kOff;

 protected:
  /// For explorers whose default budget differs from "unlimited, no
  /// reduction".
  SearchOptions(std::size_t default_max_states,
                ReductionMode default_reduction)
      : max_states(default_max_states), reduction(default_reduction) {}
};

/// The distinct-state budget the state-keyed explorers (deadlock,
/// schedule space, exact) default to.
inline constexpr std::size_t kDefaultMaxStates = 4'000'000;

/// Per-worker scheduler counters (SearchStats::workers, one entry per
/// worker thread of the work-stealing scheduler).
struct WorkerStats {
  std::uint64_t tasks_executed = 0;  ///< tasks this worker ran
  std::uint64_t tasks_stolen = 0;    ///< of those, taken from another deque
  std::uint64_t tasks_spawned = 0;   ///< tasks this worker split off
  std::uint64_t steal_attempts = 0;  ///< victim probes (successful or not)
  std::uint64_t idle_nanos = 0;      ///< time spent looking for work

  void merge(const WorkerStats& other);
};

/// What one engine run did.  Per-worker instances are merged
/// associatively by merge(); counters sum, flags OR, and the first
/// recorded stop reason wins.
struct SearchStats {
  std::uint64_t states_visited = 0;  ///< distinct states expanded
  std::uint64_t dedup_hits = 0;      ///< states pruned as already seen
  std::uint64_t terminals = 0;       ///< complete schedules delivered
  std::uint64_t deadlocked_prefixes = 0;  ///< stuck states reached
  /// Enabled events skipped because they were in the state's sleep set
  /// (their Mazurkiewicz trace was covered by an earlier sibling).  Zero
  /// unless reduction == kSourceWakeup.
  std::uint64_t sleep_pruned = 0;
  /// Enabled events skipped because the chosen source set did not
  /// contain them.  Zero unless reduction == kSourceWakeup.
  std::uint64_t source_skipped = 0;
  /// Statically dependent pairs excused by dynamic (state-aware)
  /// independence — inside the source-set closure and the wakeup-frame
  /// sleep-inheritance masks.  Zero unless reduction == kSourceWakeup.
  std::uint64_t dyn_excused = 0;
  /// Heap bytes held by the dedup/memo store at the end of the search
  /// (packed keys; debug payload retention is excluded — it exists only
  /// to cross-check collisions).  In parallel mode this is set once from
  /// the shared stores, never summed per worker (workers report 0), so
  /// shared-set insertions are not double-counted.
  std::uint64_t memo_bytes = 0;
  bool truncated = false;          ///< a budget stopped the search
  bool stopped_by_visitor = false;
  StopReason stop_reason = StopReason::kNone;

  /// States counted per schedule depth (events executed, including any
  /// seed prefix), same counting rule as states_visited.  Element-wise
  /// summed by merge().
  std::vector<std::uint64_t> depth_states;
  /// Per-worker scheduler counters; empty for serial runs and for
  /// sweeps that never grew past search::kGrowAfterEntries.  Index-wise
  /// merged (worker i of every task batch is the same OS thread).
  std::vector<WorkerStats> workers;
  /// Final per-shard sizes of the shared fingerprint store (load-factor
  /// diagnostics); empty when the explorer used no shared store.  Set
  /// once at top level; merge() adopts whichever side is non-empty.
  std::vector<std::uint64_t> shard_sizes;

  void merge(const SearchStats& other);

  std::uint64_t tasks_executed() const;
  std::uint64_t tasks_stolen() const;
  std::uint64_t tasks_spawned() const;
  std::uint64_t steal_attempts() const;
  std::uint64_t idle_nanos() const;
  /// Peak depth_states entry and its depth; {0, 0} when no histogram.
  std::uint64_t peak_depth() const;
  /// max(shard size) / mean(shard size); 0 when no shard data.
  double shard_imbalance() const;

  /// Approximate resident footprint of this stats object itself (struct
  /// plus histogram / per-worker / per-shard vectors) — results that
  /// embed a SearchStats charge it to the service result cache's byte
  /// budget through their own approx_bytes().
  std::uint64_t approx_bytes() const {
    return sizeof(SearchStats) +
           depth_states.capacity() * sizeof(std::uint64_t) +
           workers.capacity() * sizeof(WorkerStats) +
           shard_sizes.capacity() * sizeof(std::uint64_t);
  }
};

}  // namespace evord::search
