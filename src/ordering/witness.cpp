#include "ordering/witness.hpp"

#include "feasible/enumerate.hpp"
#include "ordering/causal.hpp"

namespace evord {

namespace {

EnumerateOptions to_enum_options(const ExactOptions& options) {
  EnumerateOptions eo;
  static_cast<search::SearchOptions&>(eo) = options;
  // Witnesses are the first match in DFS order over every schedule
  // (plain enumeration never reduces, so no interleaving that orders two
  // independent events the way the query asks is pruned).
  eo.stepper.respect_dependences = options.respect_dependences;
  return eo;
}

bool precedes_in(const std::vector<EventId>& schedule, EventId a, EventId b) {
  for (EventId e : schedule) {
    if (e == a) return true;
    if (e == b) return false;
  }
  return false;
}

}  // namespace

std::optional<std::vector<EventId>> witness_could_happen_before(
    const Trace& trace, EventId a, EventId b, Semantics semantics,
    const ExactOptions& options) {
  const EnumerateOptions eo = to_enum_options(options);
  const CausalOptions co{.include_data_edges = options.causal_data_edges};
  if (semantics == Semantics::kCausal) {
    return find_schedule_where(trace, eo,
                               [&](const std::vector<EventId>& s) {
                                 return causal_closure(trace, s, co)
                                     .reachable(a, b);
                               });
  }
  // Interleaving and interval: a preceding b in a schedule realizes a T b.
  return find_schedule_where(trace, eo, [&](const std::vector<EventId>& s) {
    return precedes_in(s, a, b);
  });
}

std::optional<std::vector<EventId>> witness_could_be_concurrent(
    const Trace& trace, EventId a, EventId b, const ExactOptions& options) {
  const CausalOptions co{.include_data_edges = options.causal_data_edges};
  return find_schedule_where(trace, to_enum_options(options),
                             [&](const std::vector<EventId>& s) {
                               return causal_closure(trace, s, co)
                                   .incomparable(a, b);
                             });
}

std::optional<std::vector<EventId>> refute_must_happen_before(
    const Trace& trace, EventId a, EventId b, Semantics semantics,
    const ExactOptions& options) {
  const EnumerateOptions eo = to_enum_options(options);
  const CausalOptions co{.include_data_edges = options.causal_data_edges};
  if (semantics == Semantics::kCausal) {
    return find_schedule_where(trace, eo,
                               [&](const std::vector<EventId>& s) {
                                 return !causal_closure(trace, s, co)
                                             .reachable(a, b);
                               });
  }
  return find_schedule_where(trace, eo, [&](const std::vector<EventId>& s) {
    return !precedes_in(s, a, b);
  });
}

}  // namespace evord
