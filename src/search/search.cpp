#include "search/search.hpp"

#include <algorithm>

namespace evord::search {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kMaxStates:
      return "max-states";
    case StopReason::kMaxTerminals:
      return "max-terminals";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kVisitor:
      return "visitor";
    case StopReason::kMemory:
      return "memory";
  }
  return "unknown";
}

const char* to_string(ReductionMode mode) {
  switch (mode) {
    case ReductionMode::kOff:
      return "off";
    case ReductionMode::kSourceWakeup:
      return "source+wakeup";
  }
  return "unknown";
}

std::uint64_t SearchStats::peak_depth() const {
  if (depth_states.empty()) return 0;
  const auto it = std::max_element(depth_states.begin(), depth_states.end());
  return static_cast<std::uint64_t>(it - depth_states.begin());
}

}  // namespace evord::search
