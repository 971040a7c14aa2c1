#include "feasible/enumerate.hpp"

#include <optional>

#include "search/engine.hpp"

namespace evord {

namespace {

/// Enumeration hooks: forward terminals to the caller's visitor; stuck
/// prefixes are only counted (by the engine).
struct EnumHooks {
  const ScheduleVisitor* visit;
  bool on_terminal(const std::vector<EventId>& schedule,
                   const search::NullTracker& /*tracker*/) {
    return (*visit)(schedule);
  }
  void on_stuck(const std::vector<EventId>& /*path*/, std::uint64_t /*fp*/) {}
};

using EnumSearch =
    search::EnumerationSearch<search::NullTracker, search::NoDedup, EnumHooks>;

}  // namespace

EnumerateStats enumerate_schedules(const Trace& trace,
                                   const EnumerateOptions& options,
                                   const ScheduleVisitor& visit) {
  // Every schedule is visited: plain enumeration never reduces.
  search::SearchOptions so = options;
  so.reduction = search::ReductionMode::kOff;
  search::SharedContext ctx(so);
  const search::ScopedAccountant charge_guard(options.charge_store,
                                              &ctx.memory);
  search::SearchStats stats =
      EnumSearch(trace, options.stepper, so, &ctx, search::NullTracker{},
                 search::NoDedup{}, EnumHooks{&visit})
          .run();
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
  std::optional<std::vector<EventId>> found;
  enumerate_schedules(trace, options, [&](const std::vector<EventId>& s) {
    if (!pred(s)) return true;
    found = s;
    return false;
  });
  return found;
}

std::uint64_t count_schedules(const Trace& trace,
                              const EnumerateOptions& options) {
  return enumerate_schedules(trace, options,
                             [](const std::vector<EventId>&) { return true; })
      .schedules;
}

}  // namespace evord
