#include "feasible/schedule_space.hpp"

#include <memory>

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

CanPrecedeResult run_search(const Trace& trace,
                            const ScheduleSpaceOptions& options,
                            bool build_matrix) {
  const search::SearchOptions& so = options;
  std::unique_ptr<search::IndependenceRelation> indep;
  if (so.reduction != search::ReductionMode::kOff) {
    indep = std::make_unique<search::IndependenceRelation>(trace);
  }

  CanPrecedeResult result;
  if (build_matrix) {
    result.can_precede.assign(trace.num_events(),
                              DynamicBitset(trace.num_events()));
  }
  if (options.build_coexist) {
    result.can_coexist.assign(trace.num_events(),
                              DynamicBitset(trace.num_events()));
  }
  search::SharedContext ctx(so);

  // Warm-store reuse (ScheduleSpaceOptions::warm_memo contract): a
  // caller-owned memo may only replace the private one when its entries
  // mean exactly the same thing in every run — unreduced,
  // unbudgeted — and when a non-empty store cannot
  // short-circuit matrix marks (verdict-only sweep, or the store is
  // still empty and this run is the one that fills it).  The warm store
  // is never attached to this run's accountant: it outlives the run and
  // its bytes belong to its owner, not to this search's budget (which
  // the gate forces to "unlimited" anyway).
  const bool verdict_only = !build_matrix && !options.build_coexist;
  search::FingerprintBoolMap* const warm = options.warm_memo;
  const bool use_warm = warm != nullptr &&
                        so.reduction == search::ReductionMode::kOff &&
                        so.max_memory_bytes == 0 &&
                        (verdict_only || warm->size() == 0);

  std::unique_ptr<search::FingerprintBoolMap> own;
  search::FingerprintBoolMap* memo = warm;
  const std::uint64_t preexisting = use_warm ? warm->size() : 0;
  if (!use_warm) {
    own = std::make_unique<search::FingerprintBoolMap>(
        search::make_store_config(trace, so, 1));
    own->set_accountant(&ctx.memory);
    memo = own.get();
  }
  search::MemoizedSearch<CanPrecedeHooks> engine(
      trace, options.stepper, so, &ctx, memo,
      CanPrecedeHooks{build_matrix ? &result.can_precede : nullptr,
                      options.build_coexist ? &result.can_coexist : nullptr},
      indep.get());
  result.feasible_nonempty = engine.explore(0);
  result.search = engine.stats();
  result.search.memo_bytes = memo->bytes();
  result.search.shard_sizes = memo->shard_sizes();
  // With a warm store, memo->size() counts entries from earlier runs
  // too; report only the states THIS run added, so a run through a
  // still-empty warm store is byte-identical to a private-memo run.
  result.states_visited = static_cast<std::size_t>(memo->size() - preexisting);
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

std::unique_ptr<search::FingerprintBoolMap> make_feasibility_memo(
    const Trace& trace, const ScheduleSpaceOptions& options) {
  return std::make_unique<search::FingerprintBoolMap>(
      search::make_store_config(trace, options, 1));
}

namespace {

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

}  // namespace

PairQueryResult can_precede_pair(const Trace& trace, EventId first,
                                 EventId second,
                                 const ScheduleSpaceOptions& options) {
  // Never reduced (`reduction` is deliberately ignored): the query's
  // verdict is an exact "does such a schedule exist", and the pruning
  // hooks already restrict the walk.
  search::SearchOptions so = options;
  so.reduction = search::ReductionMode::kOff;
  search::SharedContext ctx(so);
  search::FingerprintBoolMap memo(search::make_store_config(trace, so, 1));
  memo.set_accountant(&ctx.memory);
  search::MemoizedSearch<PairHooks> engine(trace, options.stepper, so, &ctx,
                                           &memo, PairHooks{first, second});
  PairQueryResult result;
  result.possible = engine.explore(0);
  result.search = engine.stats();
  result.search.memo_bytes = memo.bytes();
  result.search.shard_sizes = memo.shard_sizes();
  result.states_visited = static_cast<std::size_t>(memo.size());
  result.truncated = result.search.truncated;
  return result;
}

}  // namespace evord
