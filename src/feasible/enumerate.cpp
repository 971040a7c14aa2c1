#include "feasible/enumerate.hpp"

#include <memory>
#include <mutex>
#include <optional>

#include "search/engine.hpp"

namespace evord {

namespace {

/// Enumeration hooks: forward terminals to the caller's visitor with the
/// worker slot; stuck prefixes are only counted (by the engine).
struct EnumHooks {
  static constexpr bool kStateOnly = false;
  const ScheduleVisitor* visit;
  std::size_t slot;
  bool on_terminal(const std::vector<EventId>& schedule,
                   const search::NullTracker& /*tracker*/) {
    return (*visit)(slot, schedule);
  }
  void on_stuck(const std::vector<EventId>& /*path*/, std::uint64_t /*fp*/) {}
};

using EnumSearch =
    search::EnumerationSearch<search::NullTracker, search::NoDedup, EnumHooks>;

}  // namespace

EnumerateStats enumerate_schedules(const Trace& trace,
                                   const EnumerateOptions& options,
                                   const ScheduleVisitor& visit) {
  const search::SearchOptions& so = options;
  search::SharedContext ctx(so);
  const search::ScopedAccountant charge_guard(options.charge_store,
                                              &ctx.memory);
  std::unique_ptr<search::IndependenceRelation> indep;
  if (so.reduction != search::ReductionMode::kOff) {
    indep = std::make_unique<search::IndependenceRelation>(trace);
  }
  // The calling thread walks the tree; past search::kGrowAfterEntries
  // DFS entries the scheduler starts helpers that feed on the subtrees
  // it splits off.  All budgets stay strict and global: the tasks share
  // one SharedContext, so max_schedules caps the combined visit count
  // exactly.
  search::SearchStats stats = search::run_work_stealing(
      search::resolve_num_threads(so.num_threads), so.steal.seed, ctx,
      [&](const search::SearchTask& task, search::WorkerHandle& worker) {
        return EnumSearch(trace, options.stepper, so, &ctx,
                          search::NullTracker{}, search::NoDedup{},
                          EnumHooks{&visit, worker.worker_id()}, indep.get())
            .run(task, worker);
      });
  EnumerateStats out;
  out.schedules = stats.terminals;
  out.deadlocked_prefixes = stats.deadlocked_prefixes;
  out.truncated = stats.truncated;
  out.stopped_by_visitor = stats.stopped_by_visitor;
  out.search = std::move(stats);
  return out;
}

std::optional<std::vector<EventId>> find_schedule_where(
    const Trace& trace, const EnumerateOptions& options,
    const std::function<bool(const std::vector<EventId>&)>& pred) {
  std::mutex mu;
  std::optional<std::vector<EventId>> found;
  enumerate_schedules(trace, options,
                      [&](std::size_t, const std::vector<EventId>& s) {
                        if (!pred(s)) return true;
                        const std::lock_guard<std::mutex> lock(mu);
                        if (!found.has_value()) found = s;
                        return false;
                      });
  return found;
}

std::uint64_t count_schedules(const Trace& trace,
                              const EnumerateOptions& options) {
  return enumerate_schedules(
             trace, options,
             [](std::size_t, const std::vector<EventId>&) { return true; })
      .schedules;
}

}  // namespace evord
