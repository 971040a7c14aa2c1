#include "resilience/anytime.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "service/session.hpp"
#include "util/hash.hpp"

namespace evord {

const char* to_string(VerdictState state) {
  switch (state) {
    case VerdictState::kUnknown:
      return "unknown";
    case VerdictState::kProven:
      return "proven";
    case VerdictState::kRefuted:
      return "refuted";
  }
  return "?";
}

std::string QueryProvenance::summary() const {
  std::ostringstream os;
  os << "engine=" << engine;
  if (exact_complete) {
    os << " (complete)";
  } else if (truncated) {
    os << " (truncated)";
  }
  os << " rungs=" << rungs_tried;
  if (stop_reason != search::StopReason::kNone) {
    os << " stopped-by=" << search::to_string(stop_reason);
  }
  os << " states=" << states_visited << " memo-bytes=" << memo_bytes
     << " seconds=" << seconds_spent;
  if (oracle_exhausted) os << " oracle-exhausted";
  return os.str();
}

std::string BoundedVerdict::summary() const {
  std::string line = to_string(state);
  line += " [";
  line += provenance.summary();
  line += ']';
  if (witness.has_value()) {
    line += " witness-length=" + std::to_string(witness->size());
  }
  return line;
}

std::uint64_t ladder_digest(const std::vector<QueryBudget>& ladder) {
  std::uint64_t h = hash_mix(0x1adde4, ladder.size(), 0);
  for (const QueryBudget& rung : ladder) {
    h = hash_mix(0x01, h, rung.max_states);
    h = hash_mix(0x02, h, rung.max_schedules);
    h = hash_mix(0x03, h, rung.max_memory_bytes);
    std::uint64_t seconds_bits = 0;
    static_assert(sizeof(seconds_bits) == sizeof(rung.time_budget_seconds));
    std::memcpy(&seconds_bits, &rung.time_budget_seconds,
                sizeof(seconds_bits));
    h = hash_mix(0x04, h, seconds_bits);
    h = hash_mix(0x05, h, rung.max_conflicts);
  }
  return h;
}

std::vector<QueryBudget> AnytimeOptions::default_ladder() {
  // Deterministic axes only (no wall-clock rungs): states/schedules and
  // bytes escalate ~16x per rung, so an answer the small rung can give
  // is never paid for at the big rung's price.
  return {
      QueryBudget{.max_states = std::size_t{1} << 12,
                  .max_schedules = std::uint64_t{1} << 12,
                  .max_memory_bytes = std::uint64_t{1} << 20,
                  .time_budget_seconds = 0.0,
                  .max_conflicts = std::uint64_t{1} << 14},
      QueryBudget{.max_states = std::size_t{1} << 16,
                  .max_schedules = std::uint64_t{1} << 16,
                  .max_memory_bytes = std::uint64_t{16} << 20,
                  .time_budget_seconds = 0.0,
                  .max_conflicts = std::uint64_t{1} << 17},
      QueryBudget{.max_states = std::size_t{1} << 20,
                  .max_schedules = std::uint64_t{1} << 20,
                  .max_memory_bytes = std::uint64_t{256} << 20,
                  .time_budget_seconds = 0.0,
                  .max_conflicts = std::uint64_t{1} << 20},
  };
}

std::vector<QueryBudget> deadline_ladder(double deadline_seconds) {
  std::vector<QueryBudget> ladder = AnytimeOptions::default_ladder();
  if (deadline_seconds <= 0.0) return ladder;
  // Slices sum to 1 so the ladder as a whole respects the deadline;
  // early rungs get small shares because they usually answer in far
  // less (their state caps trip first) and any unused slice implicitly
  // rolls forward as the later rungs start sooner.
  constexpr double kSlices[] = {0.125, 0.25, 0.625};
  constexpr double kMinSlice = 0.001;  // 1 ms: always allow some progress
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const double share = i < std::size(kSlices) ? kSlices[i] : kSlices[2];
    ladder[i].time_budget_seconds =
        std::max(kMinSlice, deadline_seconds * share);
  }
  return ladder;
}

AnytimeQuery::AnytimeQuery(const Trace& trace, AnytimeOptions options)
    : session_(std::make_shared<service::AnalysisSession>(
          std::make_shared<const Trace>(trace), options.exact)),
      ladder_(std::move(options.ladder)) {}

BoundedVerdict AnytimeQuery::must_have_happened_before(EventId a, EventId b,
                                                       Semantics semantics) {
  return session_->anytime_must_have_happened_before(a, b, semantics,
                                                     ladder_);
}

BoundedVerdict AnytimeQuery::could_have_happened_before(EventId a, EventId b,
                                                        Semantics semantics) {
  return session_->anytime_could_have_happened_before(a, b, semantics,
                                                      ladder_);
}

BoundedVerdict AnytimeQuery::could_have_been_concurrent(EventId a,
                                                        EventId b) {
  return session_->anytime_could_have_been_concurrent(a, b, ladder_);
}

BoundedVerdict AnytimeQuery::race_between(EventId a, EventId b) {
  return session_->anytime_race_between(a, b, ladder_);
}

BoundedVerdict AnytimeQuery::can_deadlock() {
  return session_->anytime_can_deadlock(ladder_);
}

}  // namespace evord
