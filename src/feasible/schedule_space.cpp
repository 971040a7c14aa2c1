#include "feasible/schedule_space.hpp"

#include "search/engine.hpp"

namespace evord {

namespace {

/// Matrix-building hooks for the memoized sweep.
struct CanPrecedeHooks {
  static constexpr bool kFirstHit = false;

  std::vector<DynamicBitset>* can_precede;  ///< null = no matrix
  std::vector<DynamicBitset>* can_coexist;  ///< null = no coexistence

  bool child_allowed(EventId /*e*/, const TraceStepper& /*stepper*/) const {
    return true;
  }

  void on_child_completable(EventId e, const DynamicBitset& done_before) {
    // Every already-executed event can precede e in some complete
    // schedule that goes through this state.
    if (can_precede != nullptr) (*can_precede)[e] |= done_before;
  }

  /// For each pair of simultaneously enabled events, check that running
  /// them back-to-back (either order) still completes; the recursive
  /// explore() calls hit the memo, so this is cheap after the main DFS.
  template <class Search>
  void on_completable_state(Search& search, std::size_t depth) {
    if (can_coexist == nullptr) return;
    const std::size_t n = search.enabled_at(depth).size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const EventId x = search.enabled_at(depth)[i];
        const EventId y = search.enabled_at(depth)[j];
        if ((*can_coexist)[x].test(y)) continue;  // already known
        if (search.pair_completable(x, y, depth + 2) ||
            search.pair_completable(y, x, depth + 2)) {
          (*can_coexist)[x].set(y);
          (*can_coexist)[y].set(x);
        }
      }
    }
  }
};

/// Early-exit pruning for can_precede_pair: explore only prefixes in
/// which `second` never runs while `first` is pending; succeed at the
/// first complete schedule reached.
struct PairHooks {
  static constexpr bool kFirstHit = true;

  EventId first;
  EventId second;

  bool child_allowed(EventId e, const TraceStepper& stepper) const {
    return !(e == second && !stepper.executed(first));  // prune
  }
  void on_child_completable(EventId /*e*/,
                            const DynamicBitset& /*done_before*/) {}
  template <class Search>
  void on_completable_state(Search& /*search*/, std::size_t /*depth*/) {}
};

/// One serial memoized sweep from the initial state over a private memo.
/// Returns the root verdict and fills `stats` / `states_visited`.
template <class Hooks>
bool sweep(const Trace& trace, const ScheduleSpaceOptions& options,
           Hooks hooks, search::SearchStats& stats,
           std::size_t& states_visited) {
  // Never reduced (see ScheduleSpaceOptions), so the store always gets
  // the exact packed keys an unreduced walk may use.
  search::SearchOptions so = options;
  so.reduction = search::ReductionMode::kOff;
  search::SharedContext ctx(so);
  search::FingerprintBoolMap memo(search::make_store_config(trace, so, 1));
  memo.set_accountant(&ctx.memory);
  search::MemoizedSearch<Hooks> engine(trace, options.stepper, so, &ctx,
                                       &memo, std::move(hooks));
  const bool completable = engine.explore(0);
  stats = engine.stats();
  stats.memo_bytes = memo.bytes();
  stats.shard_sizes = memo.shard_sizes();
  states_visited = static_cast<std::size_t>(memo.size());
  return completable;
}

CanPrecedeResult run_search(const Trace& trace,
                            const ScheduleSpaceOptions& options,
                            bool build_matrix) {
  CanPrecedeResult result;
  if (build_matrix) {
    result.can_precede.assign(trace.num_events(),
                              DynamicBitset(trace.num_events()));
  }
  if (options.build_coexist) {
    result.can_coexist.assign(trace.num_events(),
                              DynamicBitset(trace.num_events()));
  }
  result.feasible_nonempty = sweep(
      trace, options,
      CanPrecedeHooks{build_matrix ? &result.can_precede : nullptr,
                      options.build_coexist ? &result.can_coexist : nullptr},
      result.search, result.states_visited);
  result.truncated = result.search.truncated;
  return result;
}

}  // namespace

std::uint64_t CanPrecedeResult::approx_bytes() const {
  std::uint64_t bytes = sizeof(CanPrecedeResult) + search.approx_bytes();
  bytes += can_precede.capacity() * sizeof(DynamicBitset);
  for (const DynamicBitset& row : can_precede) {
    bytes += row.word_count() * sizeof(std::uint64_t);
  }
  bytes += can_coexist.capacity() * sizeof(DynamicBitset);
  for (const DynamicBitset& row : can_coexist) {
    bytes += row.word_count() * sizeof(std::uint64_t);
  }
  return bytes;
}

CanPrecedeResult compute_can_precede(const Trace& trace,
                                     const ScheduleSpaceOptions& options) {
  return run_search(trace, options, /*build_matrix=*/true);
}

bool has_feasible_schedule(const Trace& trace,
                           const ScheduleSpaceOptions& options) {
  return run_search(trace, options, /*build_matrix=*/false).feasible_nonempty;
}

CanPrecedeResult compute_feasibility(const Trace& trace,
                                     const ScheduleSpaceOptions& options) {
  return run_search(trace, options, /*build_matrix=*/false);
}

PairQueryResult can_precede_pair(const Trace& trace, EventId first,
                                 EventId second,
                                 const ScheduleSpaceOptions& options) {
  PairQueryResult result;
  result.possible = sweep(trace, options, PairHooks{first, second},
                          result.search, result.states_visited);
  result.truncated = result.search.truncated;
  return result;
}

}  // namespace evord
