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
/// counts or interleaving-semantics matrices; class enumeration and
/// deadlock search read it, while plain enumeration and the memoized
/// sweep never reduce (docs/SEARCH.md §POR).
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
  /// through the per-depth wakeup frames the engines maintain.  Every
  /// transition-less state stays reachable and causal classes are
  /// preserved; the walk explores one schedule per causal class on
  /// every bench family.
  kSourceWakeup = 1,
};

const char* to_string(ReductionMode mode);

/// Read by nothing: no search runs workers.  Kept, empty, until the next
/// change to bench_e2e/, whose harness assigns SearchOptions::steal.
struct StealOptions {};

/// The one budget struct of the search core.  Every explorer's options
/// struct (EnumerateOptions, ScheduleSpaceOptions, DeadlockOptions,
/// ClassEnumOptions, ExactOptions) inherits it, so a front-end hands its
/// budget to the engines by slicing; the table in docs/SEARCH.md §3
/// lists which explorer honours which field.  All zero values mean
/// "unlimited".
struct SearchOptions {
  SearchOptions() = default;

  /// Stop expanding new distinct states after this many.  Only the
  /// explorers with a dedup or memo store count states.
  std::size_t max_states = 0;
  /// Stop after this many terminal (complete-schedule) visits; strict,
  /// the visit count never exceeds it.
  std::uint64_t max_schedules = 0;
  /// Stop after this many seconds of wall clock.
  double time_budget_seconds = 0.0;
  /// Stop once the search's charged memory — fingerprint/memo store
  /// entries, retained collision payloads, witness buffers — reaches
  /// this many bytes.  Strict (one MemoryAccountant per search, see
  /// search/memory.hpp), the same contract as max_states.  Engines poll
  /// per expanded state, so overshoot is bounded by one state's charge.
  std::uint64_t max_memory_bytes = 0;
  /// Read by nothing: every explorer runs on the calling thread.  Kept
  /// until the next change to bench_e2e/, whose harness assigns it.
  std::size_t num_threads = 1;
  /// Read by nothing; kept with num_threads.
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

/// Element of SearchStats::workers, which is always empty.
struct WorkerStats {};

/// What one engine run did.
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
  /// to cross-check collisions).  Set once from the store by the
  /// explorer that owns it; engines report 0.
  std::uint64_t memo_bytes = 0;
  bool truncated = false;          ///< a budget stopped the search
  bool stopped_by_visitor = false;
  StopReason stop_reason = StopReason::kNone;

  /// States counted per schedule depth (events executed), same counting
  /// rule as states_visited.
  std::vector<std::uint64_t> depth_states;
  /// Always empty, and tasks_stolen() and idle_nanos() always 0: no
  /// search runs workers.  Kept until the next change to bench_e2e/,
  /// whose per-layer ledger reads all three.
  std::vector<WorkerStats> workers;

  std::uint64_t tasks_stolen() const { return 0; }
  std::uint64_t idle_nanos() const { return 0; }
  /// Depth of the largest depth_states entry (the shallowest on ties);
  /// 0 when there is no histogram.
  std::uint64_t peak_depth() const;

  /// Heap bytes this object holds (the depth histogram).  Results embed
  /// a SearchStats by value, so their own sizeof already covers the
  /// struct; they add only this to their approx_bytes().
  std::uint64_t heap_bytes() const {
    return depth_states.capacity() * sizeof(std::uint64_t);
  }
};

}  // namespace evord::search
