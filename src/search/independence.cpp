#include "search/independence.hpp"

#include <bit>

#include "trace/event.hpp"

namespace evord::search {

// The relation is assembled class-by-class with word-parallel bitset
// unions instead of testing every O(n^2) pair individually:
//   * one mask per process (program-order pairs),
//   * one mask per semaphore over its ops (P/P, P/V, V/V all dependent),
//   * two masks per event variable — all ops, and the non-Wait ops —
//     so a Wait ORs in only posts/clears (Wait/Wait commutes) while a
//     post/clear ORs in everything on its variable.
// Only shared-data conflicts (a sparse subset: computation events with
// non-empty read/write sets) and explicit D edges fall back to scalar
// pair marking.  The result is bit-identical to the old per-pair loop.
IndependenceRelation::IndependenceRelation(const Trace& trace)
    : trace_(&trace),
      n_(trace.num_events()),
      num_procs_(trace.num_processes()),
      dep_(n_, DynamicBitset(n_)),
      max_dep_index_(n_ * num_procs_, -1),
      dep_proc_mask_(n_, 0),
      hard_dep_(n_, DynamicBitset(n_)),
      max_hard_index_(n_ * num_procs_, -1),
      sem_p_max_(trace.semaphores().size() * num_procs_, -1),
      sem_v_max_(trace.semaphores().size() * num_procs_, -1),
      ev_post_max_(trace.event_vars().size() * num_procs_, -1),
      ev_clear_max_(trace.event_vars().size() * num_procs_, -1),
      ev_wait_max_(trace.event_vars().size() * num_procs_, -1),
      sem_p_total_(trace.semaphores().size(), 0),
      dpreds_(n_) {
  std::vector<DynamicBitset> proc_events(num_procs_, DynamicBitset(n_));
  std::vector<DynamicBitset> sem_ops(trace.semaphores().size(),
                                     DynamicBitset(n_));
  std::vector<DynamicBitset> ev_ops(trace.event_vars().size(),
                                    DynamicBitset(n_));
  std::vector<DynamicBitset> ev_nonwait(trace.event_vars().size(),
                                        DynamicBitset(n_));
  std::vector<EventId> data_events;
  // Category-wise per-(object, process) maxima: the O(1) "does q still
  // hold an unexecuted P/V/Post/Clear/Wait on this object" tests behind
  // DynamicIndependence and the source-set enabling closures.
  const auto bump = [&](std::vector<std::int64_t>& table, ObjectId obj,
                        const Event& e) {
    std::int64_t& slot = table[obj * num_procs_ + e.process];
    slot = std::max(slot, static_cast<std::int64_t>(e.index_in_process));
  };
  for (EventId a = 0; a < n_; ++a) {
    const Event& e = trace.event(a);
    proc_events[e.process].set(a);
    if (is_semaphore_op(e.kind)) {
      sem_ops[e.object].set(a);
      if (e.kind == EventKind::kSemP) {
        bump(sem_p_max_, e.object, e);
        ++sem_p_total_[e.object];
      } else {
        bump(sem_v_max_, e.object, e);
      }
    }
    if (is_event_op(e.kind)) {
      ev_ops[e.object].set(a);
      if (e.kind != EventKind::kWait) ev_nonwait[e.object].set(a);
      if (e.kind == EventKind::kPost) bump(ev_post_max_, e.object, e);
      if (e.kind == EventKind::kClear) bump(ev_clear_max_, e.object, e);
      if (e.kind == EventKind::kWait) bump(ev_wait_max_, e.object, e);
    }
    if (e.accesses_shared_data()) data_events.push_back(a);
  }

  for (EventId a = 0; a < n_; ++a) {
    const Event& e = trace.event(a);
    DynamicBitset& row = dep_[a];
    // Program order; never co-enabled.  Kept dependent so the relation
    // reads as "definitely commute" only across processes.
    row |= proc_events[e.process];
    if (is_semaphore_op(e.kind)) row |= sem_ops[e.object];
    if (is_event_op(e.kind)) {
      row |= e.kind == EventKind::kWait ? ev_nonwait[e.object]
                                        : ev_ops[e.object];
    }
  }

  // Hard dependences (data conflicts + D edges) are recorded separately
  // too: they are never dynamically excusable, whatever the pair's kinds.
  const auto mark = [&](EventId a, EventId b) {
    dep_[a].set(b);
    dep_[b].set(a);
    hard_dep_[a].set(b);
    hard_dep_[b].set(a);
  };
  // Conflicting shared-data accesses: only computation events with
  // non-empty read/write sets can conflict, so scan that subset.
  for (std::size_t i = 0; i < data_events.size(); ++i) {
    const Event& ea = trace.event(data_events[i]);
    for (std::size_t j = i + 1; j < data_events.size(); ++j) {
      const Event& eb = trace.event(data_events[j]);
      if (ea.process != eb.process && ea.conflicts_with(eb)) {
        mark(data_events[i], data_events[j]);
      }
    }
  }
  // Observed shared-data dependences (D): dependent in either direction.
  // Cross-process D edges between computes are already conflict-marked;
  // this also covers any explicitly declared edges.
  for (const auto& [x, y] : trace.dependences()) {
    mark(x, y);
    dpreds_[y].push_back(x);
  }
  for (EventId a = 0; a < n_; ++a) {
    dep_[a].reset(a);
    hard_dep_[a].reset(a);
  }

  // max_dep_index_[a][q] (and its hard-only analogue): the largest
  // program-order position of an event of process q dependent with a
  // (the closures ask "does q still have a dependent event at position
  // >= pos_q?").  Iterated word-at-a-time over the dependence rows.
  const auto fill_max = [&](const std::vector<DynamicBitset>& rows,
                            std::vector<std::int64_t>& table) {
    for (EventId a = 0; a < n_; ++a) {
      const DynamicBitset& row = rows[a];
      const ProcId pa = trace.event(a).process;
      for (std::size_t w = 0; w < row.word_count(); ++w) {
        std::uint64_t bits = row.word(w);
        while (bits != 0) {
          const std::size_t b = w * 64 + std::countr_zero(bits);
          bits &= bits - 1;
          const Event& eb = trace.event(static_cast<EventId>(b));
          if (eb.process == pa) continue;
          std::int64_t& slot = table[a * num_procs_ + eb.process];
          slot = std::max(slot,
                          static_cast<std::int64_t>(eb.index_in_process));
        }
      }
    }
  };
  fill_max(dep_, max_dep_index_);
  fill_max(hard_dep_, max_hard_index_);
  // dep_proc_mask_[a]: bit q set iff process q has ANY event dependent
  // with a — the source-set closure's candidate filter, one word
  // per event when the trace has at most 64 processes.
  if (num_procs_ <= 64) {
    for (EventId a = 0; a < n_; ++a) {
      std::uint64_t m = 0;
      for (ProcId q = 0; q < num_procs_; ++q) {
        if (max_dep_index_[a * num_procs_ + q] >= 0) m |= std::uint64_t{1}
                                                         << q;
      }
      dep_proc_mask_[a] = m;
    }
  }
}

}  // namespace evord::search
