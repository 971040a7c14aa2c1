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

void WorkerStats::merge(const WorkerStats& other) {
  tasks_executed += other.tasks_executed;
  tasks_stolen += other.tasks_stolen;
  tasks_spawned += other.tasks_spawned;
  steal_attempts += other.steal_attempts;
  idle_nanos += other.idle_nanos;
}

void SearchStats::merge(const SearchStats& other) {
  states_visited += other.states_visited;
  dedup_hits += other.dedup_hits;
  terminals += other.terminals;
  deadlocked_prefixes += other.deadlocked_prefixes;
  sleep_pruned += other.sleep_pruned;
  source_skipped += other.source_skipped;
  dyn_excused += other.dyn_excused;
  memo_bytes += other.memo_bytes;
  truncated = truncated || other.truncated;
  stopped_by_visitor = stopped_by_visitor || other.stopped_by_visitor;
  if (stop_reason == StopReason::kNone) stop_reason = other.stop_reason;
  if (depth_states.size() < other.depth_states.size()) {
    depth_states.resize(other.depth_states.size(), 0);
  }
  for (std::size_t d = 0; d < other.depth_states.size(); ++d) {
    depth_states[d] += other.depth_states[d];
  }
  if (workers.size() < other.workers.size()) {
    workers.resize(other.workers.size());
  }
  for (std::size_t w = 0; w < other.workers.size(); ++w) {
    workers[w].merge(other.workers[w]);
  }
  if (shard_sizes.empty()) shard_sizes = other.shard_sizes;
}

std::uint64_t SearchStats::tasks_executed() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.tasks_executed;
  return n;
}

std::uint64_t SearchStats::tasks_stolen() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.tasks_stolen;
  return n;
}

std::uint64_t SearchStats::tasks_spawned() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.tasks_spawned;
  return n;
}

std::uint64_t SearchStats::steal_attempts() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.steal_attempts;
  return n;
}

std::uint64_t SearchStats::idle_nanos() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.idle_nanos;
  return n;
}

std::uint64_t SearchStats::peak_depth() const {
  if (depth_states.empty()) return 0;
  const auto it = std::max_element(depth_states.begin(), depth_states.end());
  return static_cast<std::uint64_t>(it - depth_states.begin());
}

double SearchStats::shard_imbalance() const {
  if (shard_sizes.empty()) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (std::uint64_t s : shard_sizes) {
    total += s;
    peak = std::max(peak, s);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shard_sizes.size());
  return static_cast<double>(peak) / mean;
}

}  // namespace evord::search
