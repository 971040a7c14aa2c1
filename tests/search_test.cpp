// Cross-engine equivalence sweep for the unified search core
// (src/search/): every explorer and a deliberately naive brute-force
// reference that shares no code with the engine must agree on
// coexistence matrices, deadlock verdicts and schedule counts over random
// traces, with dependences (F3) both enforced and ignored.  Also pins
// down that no search starts a thread, the strict budget semantics and
// the stepper's incremental state hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "../bench/bench_common.hpp"
#include "core/report.hpp"
#include "feasible/deadlock.hpp"
#include "feasible/enumerate.hpp"
#include "feasible/schedule_space.hpp"
#include "feasible/stepper.hpp"
#include "ordering/class_enumerate.hpp"
#include "ordering/exact.hpp"
#include "helpers.hpp"
#include "search/memory.hpp"
#include "search/search.hpp"
#include "search/state_registry.hpp"
#include "service/session.hpp"
#include "trace/builder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace evord {
namespace {

// ----------------------------------------------------------------------
// Brute-force reference: plain recursion on the stepper, no dedup, no
// memoization, no fingerprints.  Exponential^2, so only for tiny traces.

bool brute_completable(TraceStepper& st) {
  if (st.complete()) return true;
  std::vector<EventId> enabled;
  st.enabled_events(enabled);
  for (const EventId e : enabled) {
    const TraceStepper::Undo u = st.apply(e);
    const bool ok = brute_completable(st);
    st.undo(u);
    if (ok) return true;
  }
  return false;
}

struct BruteResult {
  std::uint64_t schedules = 0;
  std::uint64_t stuck_prefixes = 0;  ///< per-path, like the enumerator
  bool can_deadlock = false;
  std::vector<DynamicBitset> can_precede;
  std::vector<DynamicBitset> can_coexist;
};

void brute_walk(TraceStepper& st, BruteResult& r) {
  if (st.complete()) {
    ++r.schedules;
    return;
  }
  std::vector<EventId> enabled;
  st.enabled_events(enabled);
  if (enabled.empty()) {
    ++r.stuck_prefixes;
    r.can_deadlock = true;
    return;
  }
  // Matrix marks only at completable states, mirroring the definitions in
  // feasible/schedule_space.hpp (marks are state-deterministic, so the
  // repeat visits of this dedup-free walk are idempotent).
  if (brute_completable(st)) {
    for (const EventId e : enabled) {
      const TraceStepper::Undo u = st.apply(e);
      const bool ok = brute_completable(st);
      st.undo(u);
      if (ok) r.can_precede[e] |= st.done_bits();
    }
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      for (std::size_t j = i + 1; j < enabled.size(); ++j) {
        const EventId x = enabled[i];
        const EventId y = enabled[j];
        if (r.can_coexist[x].test(y)) continue;
        bool ok = false;
        for (int order = 0; order < 2 && !ok; ++order) {
          const EventId a = order == 0 ? x : y;
          const EventId b = order == 0 ? y : x;
          const TraceStepper::Undo ua = st.apply(a);
          if (st.enabled(b)) {
            const TraceStepper::Undo ub = st.apply(b);
            ok = brute_completable(st);
            st.undo(ub);
          }
          st.undo(ua);
        }
        if (ok) {
          r.can_coexist[x].set(y);
          r.can_coexist[y].set(x);
        }
      }
    }
  }
  for (const EventId e : enabled) {
    const TraceStepper::Undo u = st.apply(e);
    brute_walk(st, r);
    st.undo(u);
  }
}

BruteResult brute_force(const Trace& trace, const StepperOptions& options) {
  BruteResult r;
  r.can_precede.assign(trace.num_events(), DynamicBitset(trace.num_events()));
  r.can_coexist.assign(trace.num_events(), DynamicBitset(trace.num_events()));
  TraceStepper st(trace, options);
  brute_walk(st, r);
  return r;
}

Trace small_random_trace(std::uint64_t seed, std::size_t num_events) {
  Rng rng(seed);
  evord::testing::RandomTraceConfig config;
  config.num_events = num_events;
  config.num_event_vars = seed % 2;  // alternate semaphore/event mixes
  return evord::testing::random_trace(config, rng);
}

/// `procs` processes of `per_proc` independent computations each: every
/// interleaving is a schedule.  At 3 x 4 that is 12!/(4!)^3 = 34,650
/// schedules.
Trace independent_trace(std::size_t procs, std::size_t per_proc) {
  TraceBuilder b;
  std::vector<ProcId> ps{b.root()};
  while (ps.size() < procs) ps.push_back(b.add_process());
  for (std::size_t i = 0; i < per_proc; ++i) {
    for (const ProcId p : ps) b.compute(p, "", {}, {});
  }
  return b.build();
}

/// A trace where some interleavings wedge: p1 grants both semaphores,
/// then p2 takes a-then-b while p3 takes b-then-a (circular wait).
Trace deadlockable_trace() {
  TraceBuilder b;
  const ObjectId a = b.semaphore("a");
  const ObjectId sb = b.semaphore("b");
  const ProcId p2 = b.add_process();
  const ProcId p3 = b.add_process();
  b.sem_v(b.root(), a);
  b.sem_v(b.root(), sb);
  b.sem_p(p2, a);
  b.sem_p(p2, sb);
  b.sem_v(p2, a);
  b.sem_v(p2, sb);
  b.sem_p(p3, sb);
  b.sem_p(p3, a);
  return b.build();
}

// ----------------------------------------------------------------------
// Schedule-space engine == brute force.

TEST(SearchEquivalence, CoexistMatricesMatchBrute) {
  for (const bool respect_deps : {true, false}) {
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
      const Trace t = small_random_trace(seed, 10);
      ScheduleSpaceOptions options;
      options.stepper.respect_dependences = respect_deps;
      options.build_coexist = true;

      const CanPrecedeResult r = compute_can_precede(t, options);
      const BruteResult brute = brute_force(t, options.stepper);

      EXPECT_EQ(r.feasible_nonempty, brute.schedules > 0) << "seed " << seed;
      EXPECT_EQ(r.can_precede, brute.can_precede) << "seed " << seed;
      EXPECT_EQ(r.can_coexist, brute.can_coexist) << "seed " << seed;
    }
  }
}

// ----------------------------------------------------------------------
// Deadlock engine == brute force.

TEST(SearchEquivalence, DeadlockVerdictsMatchBrute) {
  std::size_t deadlocks_seen = 0;
  for (const bool respect_deps : {true, false}) {
    for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
      const Trace t = seed == 25u ? deadlockable_trace()
                                  : small_random_trace(seed, 11);
      DeadlockOptions options;
      options.stepper.respect_dependences = respect_deps;

      const DeadlockReport r = analyze_deadlocks(t, options);
      const BruteResult brute = brute_force(t, options.stepper);

      EXPECT_EQ(r.can_deadlock, brute.can_deadlock) << "seed " << seed;
      if (r.can_deadlock) ++deadlocks_seen;
    }
  }
  EXPECT_GE(deadlocks_seen, 2u);  // the sweep exercised real deadlocks
}

// ----------------------------------------------------------------------
// Enumerator == brute force.

TEST(SearchEquivalence, ScheduleCountsMatchBrute) {
  for (const bool respect_deps : {true, false}) {
    for (const std::uint64_t seed : {31u, 32u}) {
      // Seed 31 at 12 events makes over 46,000 DFS entries; seed 32 has
      // an event variable.
      const Trace t = small_random_trace(seed, 12);
      EnumerateOptions options;
      options.stepper.respect_dependences = respect_deps;

      std::uint64_t visits = 0;
      const EnumerateStats stats =
          enumerate_schedules(t, options, [&](const std::vector<EventId>&) {
            ++visits;
            return true;
          });
      const BruteResult brute = brute_force(t, options.stepper);

      EXPECT_EQ(stats.schedules, brute.schedules) << "seed " << seed;
      EXPECT_EQ(visits, stats.schedules);
      EXPECT_EQ(stats.deadlocked_prefixes, brute.stuck_prefixes);
    }
  }
}

// ----------------------------------------------------------------------
// No search starts a thread.

/// Threads of this process, from /proc (Linux); 0 where it is missing.
std::size_t process_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

// Every visit of plain and class enumeration arrives on the calling
// thread and the process never gains a thread, even at num_threads = 8
// on walks of over 22,000 DFS entries; the counts are the serial ones.
TEST(SearchThreads, NoSearchStartsAThread) {
  const Trace t = evord::testing::contended_trace(4, 2);
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t most = 0;
  bool off_thread = false;
  std::uint64_t visits = 0;
  const auto seen = [&] {
    most = std::max(most, process_threads());
    off_thread = off_thread || std::this_thread::get_id() != caller;
    ++visits;
    return true;
  };

  EnumerateOptions eo;
  eo.num_threads = 8;
  const EnumerateStats plain = enumerate_schedules(
      t, eo, [&](const std::vector<EventId>&) { return seen(); });
  EXPECT_EQ(plain.schedules, 2520u);
  EXPECT_EQ(plain.schedules, count_schedules(t));
  EXPECT_EQ(visits, plain.schedules);

  visits = 0;
  ClassEnumOptions co;
  co.num_threads = 8;
  const ClassEnumStats classes = enumerate_causal_classes(
      t, co,
      [&](const std::vector<EventId>&, const std::vector<DynamicBitset>&) {
        return seen();
      });
  const ClassEnumStats serial = enumerate_causal_classes(
      t, {}, evord::testing::accept_every_class);
  EXPECT_EQ(classes.schedules_visited, serial.schedules_visited);
  EXPECT_EQ(visits, classes.schedules_visited);

  EXPECT_FALSE(off_thread);
  EXPECT_EQ(most, before);
  EXPECT_EQ(process_threads(), before);
}

// ----------------------------------------------------------------------
// Strict budgets.

TEST(SearchBudget, MaxSchedulesIsStrict) {
  // 3 processes x 4 independent computes: 12!/(4!)^3 = 34,650
  // schedules.
  const Trace t = independent_trace(3, 4);
  constexpr std::uint64_t kTotal = 34650;

  for (const std::uint64_t budget :
       {std::uint64_t{1}, std::uint64_t{7}, kTotal / 2, kTotal - 1, kTotal,
        std::uint64_t{0}}) {
    EnumerateOptions options;
    options.max_schedules = budget;
    std::uint64_t visits = 0;
    const EnumerateStats stats =
        enumerate_schedules(t, options, [&visits](const std::vector<EventId>&) {
          ++visits;
          return true;
        });
    const std::uint64_t expect =
        budget == 0 ? kTotal : std::min(budget, kTotal);
    EXPECT_EQ(visits, expect) << "budget " << budget;
    EXPECT_EQ(stats.schedules, expect) << "budget " << budget;
    // Hitting the cap flags truncation even at budget == kTotal: the
    // engine stops there without learning the space was exhausted
    // (the enumerator has always reported it this way).
    const bool capped = budget != 0 && budget <= kTotal;
    EXPECT_EQ(stats.truncated, capped);
    EXPECT_EQ(stats.search.stop_reason,
              capped ? search::StopReason::kMaxTerminals
                     : search::StopReason::kNone);
  }
}

// ----------------------------------------------------------------------
// The stepper's incremental state hash is a function of the state alone.

TEST(StateHash, PathIndependentAndExactUnderUndo) {
  for (const std::uint64_t seed : {51u, 52u, 53u}) {
    const Trace t = small_random_trace(seed, 12);
    TraceStepper st(t);
    const std::uint64_t initial = st.state_hash();

    // Many random walks with full unwinding: every distinct encode_key
    // must map to exactly one hash, and vice versa along each walk.
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> seen;
    Rng rng(seed * 977);
    std::vector<EventId> enabled;
    std::vector<std::uint64_t> key;
    for (int walk = 0; walk < 50; ++walk) {
      std::vector<TraceStepper::Undo> undos;
      for (;;) {
        st.encode_key(key);
        const auto [it, inserted] = seen.try_emplace(st.state_hash(), key);
        if (!inserted) {
          EXPECT_EQ(it->second, key) << "hash collision or path dependence";
        }
        st.enabled_events(enabled);
        if (enabled.empty()) break;
        undos.push_back(st.apply(enabled[rng.below(enabled.size())]));
      }
      while (!undos.empty()) {
        st.undo(undos.back());
        undos.pop_back();
      }
      EXPECT_EQ(st.state_hash(), initial);  // exact restoration
    }
  }
}

// ----------------------------------------------------------------------
// Search instrumentation: the depth histogram is filled in and
// consistent.

TEST(SearchStats, DepthHistogramSurfaced) {
  const Trace t = evord::testing::contended_trace(4, 2);
  const ClassEnumStats r = enumerate_causal_classes(
      t, {}, evord::testing::accept_every_class);

  // The depth histogram counts every distinct state exactly once.
  std::uint64_t histogram_total = 0;
  for (const std::uint64_t c : r.search.depth_states) histogram_total += c;
  EXPECT_EQ(histogram_total, r.search.states_visited);
  EXPECT_LE(r.search.peak_depth(), t.num_events());

  // And the relations report carries the histogram.
  const std::string report =
      summarize_relations(t, compute_exact(t, Semantics::kCausal, {}));
  EXPECT_NE(report.find("depth histogram:"), std::string::npos);
}

// ----------------------------------------------------------------------
// SearchStats are surfaced end to end.

TEST(SearchStats, SurfacedThroughResultsAnalyzerAndReport) {
  const Trace t = small_random_trace(61, 10);

  ScheduleSpaceOptions sso;
  sso.build_coexist = true;
  const CanPrecedeResult cp = compute_can_precede(t, sso);
  EXPECT_EQ(cp.search.states_visited, cp.states_visited);
  // memo_bytes is the memo store's real resident footprint: positive,
  // and well under the historical 9 bytes per state (packed entries).
  EXPECT_GT(cp.search.memo_bytes, 0u);
  EXPECT_LE(cp.search.memo_bytes,
            2 * cp.states_visited * bench::kMemoBytesPerEntry);

  const DeadlockReport dl = analyze_deadlocks(t, {});
  EXPECT_EQ(dl.search.states_visited, dl.states_visited);
  EXPECT_GT(dl.search.memo_bytes, 0u);
  EXPECT_LE(dl.search.memo_bytes,
            2 * dl.states_visited * bench::kVisitedBytesPerEntry);

  service::AnalysisSession session(std::make_shared<const Trace>(t));
  const auto causal = session.relations(Semantics::kCausal);
  EXPECT_GT(causal->search.states_visited, 0u);
  EXPECT_GT(session.relations(Semantics::kInterleaving)->search.memo_bytes,
            0u);
  const std::string report = summarize_relations(t, *causal);
  EXPECT_NE(report.find("search: states="), std::string::npos);
  EXPECT_NE(report.find("memo bytes="), std::string::npos);
}

// ----------------------------------------------------------------------
// SearchStats helpers and enum names: exhaustive small-value coverage.

TEST(SearchStats, StopReasonNamesAreExhaustive) {
  using search::StopReason;
  EXPECT_STREQ(search::to_string(StopReason::kNone), "none");
  EXPECT_STREQ(search::to_string(StopReason::kMaxStates), "max-states");
  EXPECT_STREQ(search::to_string(StopReason::kMaxTerminals), "max-terminals");
  EXPECT_STREQ(search::to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(search::to_string(StopReason::kVisitor), "visitor");
  EXPECT_STREQ(search::to_string(StopReason::kMemory), "memory");
  EXPECT_STREQ(search::to_string(static_cast<StopReason>(0xff)), "unknown");
}

// ----------------------------------------------------------------------
// Memory accounting: the byte budget layer under max_memory_bytes.

TEST(MemoryAccountant, ChargeReleaseAndLimit) {
  search::MemoryAccountant acc(100);
  EXPECT_FALSE(acc.exceeded());
  acc.charge(40);
  EXPECT_EQ(acc.bytes(), 40u);
  EXPECT_FALSE(acc.exceeded());
  acc.charge(60);
  EXPECT_TRUE(acc.exceeded());  // at the limit counts as exceeded
  acc.release(1);
  EXPECT_FALSE(acc.exceeded());
  EXPECT_EQ(acc.bytes(), 99u);
}

TEST(MemoryAccountant, UnlimitedUnlessExhausted) {
  search::MemoryAccountant acc(0);  // 0 = unlimited
  acc.charge(1'000'000'000);
  EXPECT_FALSE(acc.exceeded());
  acc.exhaust();  // a failed store insertion force-exhausts
  EXPECT_TRUE(acc.exceeded());
}

TEST(MemoryAccountant, StoreChargesMatchReportedMemoBytes) {
  // The registry charges its real heap footprint (bucket arrays + packed
  // entry words; no collision payloads with verify off), so the
  // accountant's total must equal bytes() exactly, stay in the ballpark
  // of the nominal 8 B/state, and be released in full on detach.
  search::MemoryAccountant acc(0);
  search::PackedStateRegistry set(
      {.initial_buckets = 4, .verify_collisions = false});
  set.set_accountant(&acc);
  std::uint64_t inserted = 0;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    if (set.insert(i * 0x9e3779b97f4a7c15ull)) ++inserted;
    set.insert(i * 0x9e3779b97f4a7c15ull);  // duplicate: must not charge
  }
  EXPECT_EQ(set.size(), inserted);
  EXPECT_EQ(acc.bytes(), set.bytes());
  EXPECT_GT(acc.bytes(), 0u);
  EXPECT_LE(acc.bytes(), 2 * inserted * bench::kVisitedBytesPerEntry);
  set.set_accountant(nullptr);
  EXPECT_EQ(acc.bytes(), 0u);
}

TEST(MemoryAccountant, BoolMapChargesPerStoredState) {
  search::MemoryAccountant acc(0);
  search::PackedStateRegistry memo(
      {.initial_buckets = 2, .verify_collisions = false, .value_bits = 1});
  memo.set_accountant(&acc);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    memo.store(i * 0x9e3779b97f4a7c15ull, (i & 1) != 0);
  }
  EXPECT_EQ(acc.bytes(), memo.bytes());
  EXPECT_GT(acc.bytes(), 0u);
  EXPECT_LE(acc.bytes(), 2 * memo.size() * bench::kMemoBytesPerEntry);
}

TEST(SearchBudgets, MemoryBudgetStopsDeadlockSearch) {
  Rng rng(9);
  testing::RandomTraceConfig config;
  // Large enough that even the source-set-reduced search (the default
  // mode) stores comfortably more than the 256-byte budget below.
  config.num_events = 24;
  const Trace trace = testing::random_trace(config, rng);
  DeadlockOptions unbudgeted;
  const DeadlockReport full = analyze_deadlocks(trace, unbudgeted);
  ASSERT_FALSE(full.truncated);
  ASSERT_GT(full.search.memo_bytes, 256u);

  DeadlockOptions budgeted;
  budgeted.max_memory_bytes = 256;
  const DeadlockReport r = analyze_deadlocks(trace, budgeted);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.search.stop_reason, search::StopReason::kMemory);
  EXPECT_LT(r.states_visited, full.states_visited);
}

TEST(SearchBudgets, MemoizedSweepPollsDeadlineOnMemoHits) {
  // Regression: the memo-hit fast path used to skip the budget poll, so
  // a search spending all its time on hits never noticed an expired
  // deadline.  An already-expired deadline must now stop the sweep
  // almost immediately even though hits dominate.
  // The budget is polled every 256 states, so the trace must be big
  // enough for the sweep to cross at least one poll boundary.
  Rng rng(4);
  testing::RandomTraceConfig config;
  config.num_events = 48;
  config.num_processes = 4;
  const Trace trace = testing::random_trace(config, rng);
  ScheduleSpaceOptions options;
  options.time_budget_seconds = 1e-9;  // expired before the first poll
  const CanPrecedeResult r = compute_can_precede(trace, options);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.search.stop_reason, search::StopReason::kDeadline);
}

TEST(SearchBudgets, StateCapNeverMemoizesUnprovenFalse) {
  // Regression: a sweep whose children were cut by max_states used to
  // memoize "not completable" for their parent, while a walk that had
  // finished the same state first stored "completable" — a CheckError
  // ("memoized value mismatch") in about a third of these runs.  A cut
  // `false` is unproven and must never reach the memo; the truncated
  // matrices stay under-approximations.
  int truncated_runs = 0;
  for (int run = 0; run < 400; ++run) {
    Rng rng(1 + run % 16);
    SemTraceConfig config;
    config.num_processes = 6;
    config.num_semaphores = 2;
    config.num_events = 30;
    const Trace trace = random_semaphore_trace(config, rng);
    ScheduleSpaceOptions options;
    options.max_states = 3 + (run * 37) % 25;
    CanPrecedeResult r;
    ASSERT_NO_THROW(r = compute_can_precede(trace, options)) << "run " << run;
    truncated_runs += r.truncated ? 1 : 0;
    if (run % 16 == 0) {
      ScheduleSpaceOptions unbudgeted;
      unbudgeted.max_states = 0;
      const CanPrecedeResult full = compute_can_precede(trace, unbudgeted);
      for (EventId b = 0; b < trace.num_events(); ++b) {
        EXPECT_TRUE(r.can_precede[b].is_subset_of(full.can_precede[b]))
            << "run " << run << " event " << b;
      }
    }
  }
  EXPECT_EQ(truncated_runs, 400);
}

TEST(SearchOptions, ExplorerDefaultBudgetsArePinned) {
  // Every explorer inherits search::SearchOptions; only max_states and
  // reduction differ by explorer, and a default that flips when fields
  // move between structs changes results silently.
  using search::ReductionMode;
  struct Row {
    const char* explorer;
    search::SearchOptions options;
    std::size_t max_states;
    ReductionMode reduction;
  };
  const Row rows[] = {
      {"Exact", ExactOptions{}, 4'000'000, ReductionMode::kSourceWakeup},
      {"Deadlock", DeadlockOptions{}, 4'000'000,
       ReductionMode::kSourceWakeup},
      {"ScheduleSpace", ScheduleSpaceOptions{}, 4'000'000,
       ReductionMode::kOff},
      {"ClassEnum", ClassEnumOptions{}, 0, ReductionMode::kSourceWakeup},
      {"Enumerate", EnumerateOptions{}, 0, ReductionMode::kOff},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.explorer);
    EXPECT_EQ(row.options.max_states, row.max_states);
    EXPECT_EQ(row.options.reduction, row.reduction);
    EXPECT_EQ(row.options.num_threads, 1u);
    EXPECT_EQ(row.options.max_schedules, 0u);
    EXPECT_EQ(row.options.time_budget_seconds, 0.0);
    EXPECT_EQ(row.options.max_memory_bytes, 0u);
  }
}

TEST(SearchStats, ReductionModeNamesAreExhaustive) {
  using search::ReductionMode;
  EXPECT_STREQ(search::to_string(ReductionMode::kOff), "off");
  EXPECT_STREQ(search::to_string(ReductionMode::kSourceWakeup),
               "source+wakeup");
  EXPECT_STREQ(search::to_string(static_cast<ReductionMode>(0xff)),
               "unknown");
}

TEST(SearchStats, PeakDepthEdgeCases) {
  search::SearchStats s;
  EXPECT_EQ(s.peak_depth(), 0u);  // no histogram at all
  s.depth_states = {7};
  EXPECT_EQ(s.peak_depth(), 0u);  // single bucket: the peak is depth 0
  s.depth_states = {0, 1, 9, 9, 2};
  EXPECT_EQ(s.peak_depth(), 2u);  // ties resolve to the shallower depth
}

}  // namespace
}  // namespace evord
