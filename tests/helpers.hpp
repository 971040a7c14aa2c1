// Shared test utilities: deterministic random trace generators that are
// valid by construction (operations are only emitted when the semantics
// allow them in the build order, which becomes the observed order).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "trace/builder.hpp"
#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"

namespace evord::testing {

/// A causal-class visitor (ordering/class_enumerate.hpp) that keeps the
/// search going after every schedule.
inline bool accept_every_class(const std::vector<EventId>&,
                               const std::vector<DynamicBitset>&) {
  return true;
}

struct RandomTraceConfig {
  std::size_t num_processes = 3;
  std::size_t num_semaphores = 2;
  std::size_t num_event_vars = 0;
  std::size_t num_variables = 2;
  std::size_t num_events = 12;
  double sync_probability = 0.5;  ///< vs. computation events
  bool allow_clear = true;
};

/// Generates a random valid trace.  Every op is chosen among the ops that
/// are currently enabled, so the emitted build order is a valid observed
/// order.  P operations are only emitted when the count is positive and a
/// matching V is guaranteed to have been emitted, so the trace never
/// encodes an impossible execution.
inline Trace random_trace(const RandomTraceConfig& config, Rng& rng) {
  TraceBuilder b;
  std::vector<ObjectId> sems;
  for (std::size_t s = 0; s < config.num_semaphores; ++s) {
    sems.push_back(b.semaphore("s" + std::to_string(s)));
  }
  std::vector<ObjectId> evs;
  for (std::size_t v = 0; v < config.num_event_vars; ++v) {
    evs.push_back(b.event_var("e" + std::to_string(v)));
  }
  std::vector<VarId> vars;
  for (std::size_t v = 0; v < config.num_variables; ++v) {
    vars.push_back(b.variable("x" + std::to_string(v)));
  }
  std::vector<ProcId> procs{b.root()};
  while (procs.size() < config.num_processes) procs.push_back(b.add_process());

  std::vector<int> count(config.num_semaphores, 0);
  std::vector<bool> posted(config.num_event_vars, false);

  for (std::size_t i = 0; i < config.num_events; ++i) {
    const ProcId p = procs[rng.below(procs.size())];
    if (!sems.empty() && rng.chance(config.sync_probability)) {
      const std::size_t s = rng.below(sems.size());
      if (count[s] > 0 && rng.chance(0.5)) {
        b.sem_p(p, sems[s]);
        --count[s];
      } else {
        b.sem_v(p, sems[s]);
        ++count[s];
      }
    } else if (!evs.empty() && rng.chance(config.sync_probability)) {
      const std::size_t v = rng.below(evs.size());
      if (posted[v] && rng.chance(0.4)) {
        b.wait(p, evs[v]);
      } else if (posted[v] && config.allow_clear && rng.chance(0.3)) {
        b.clear(p, evs[v]);
        posted[v] = false;
      } else {
        b.post(p, evs[v]);
        posted[v] = true;
      }
    } else {
      std::vector<VarId> reads;
      std::vector<VarId> writes;
      if (!vars.empty()) {
        if (rng.chance(0.6)) reads.push_back(vars[rng.below(vars.size())]);
        if (rng.chance(0.5)) writes.push_back(vars[rng.below(vars.size())]);
      }
      b.compute(p, "c" + std::to_string(i), std::move(reads),
                std::move(writes));
    }
  }
  return b.build();
}

/// A trace with fork/join structure: root forks children that do a few
/// computation/sync events, then joins them.
inline Trace random_fork_join_trace(std::size_t num_children,
                                    std::size_t events_per_child, Rng& rng) {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  const VarId x = b.variable("x");
  int count = 0;
  std::vector<ProcId> children;
  for (std::size_t c = 0; c < num_children; ++c) {
    children.push_back(b.fork(b.root()));
  }
  for (std::size_t i = 0; i < num_children * events_per_child; ++i) {
    const ProcId p = children[rng.below(children.size())];
    const auto choice = rng.below(3);
    if (choice == 0) {
      b.sem_v(p, s);
      ++count;
    } else if (choice == 1 && count > 0) {
      b.sem_p(p, s);
      --count;
    } else {
      const bool write = rng.chance(0.5);
      b.compute(p, "", write ? std::vector<VarId>{} : std::vector<VarId>{x},
                write ? std::vector<VarId>{x} : std::vector<VarId>{});
    }
  }
  for (ProcId c : children) b.join(b.root(), c);
  return b.build();
}

/// `procs` processes (the root among them) taking one mutex `rounds`
/// times each: P(m), a private computation, V(m) on a counting semaphore
/// with one initial token, every process in turn.  Every order of the
/// critical sections is its own causal class.  At 4 x 2 (24 events,
/// 2,520 schedules) both the plain and the class enumeration walk make
/// over 22,000 DFS entries.
inline Trace contended_trace(std::size_t procs, std::size_t rounds) {
  TraceBuilder b;
  std::vector<ProcId> ps{b.root()};
  while (ps.size() < procs) ps.push_back(b.add_process());
  const ObjectId m = b.semaphore("m", /*initial=*/1);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const ProcId p : ps) {
      b.sem_p(p, m);
      b.compute(p, "");
      b.sem_v(p, m);
    }
  }
  return b.build();
}

}  // namespace evord::testing
