// Incremental replay of a trace's events under arbitrary valid schedules.
//
// A TraceStepper holds the frontier of a partial schedule: per-process
// positions, semaphore counts, event-variable flags and the executed set.
// It answers "which events may execute next" under the validity rules of
// DESIGN.md §3 (program order, fork/join, semaphore and event-variable
// semantics, and — unless disabled for the paper's §5.3 mode — the
// shared-data dependences F3).  Both feasible-execution engines (the
// memoized state-space search and the exhaustive schedule enumerator) are
// built on it.
//
// apply()/undo() are O(1); the stepper is designed for DFS use.
#pragma once

#include <cstdint>
#include <vector>

#include "search/state_registry.hpp"
#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/hash.hpp"

namespace evord {

struct StepperOptions {
  /// Enforce F3: every D edge (a, b) forces a before b.  Disable to
  /// explore all executions with the same events regardless of the
  /// original dependences (paper §5.3).
  bool respect_dependences = true;
};

class TraceStepper {
 public:
  explicit TraceStepper(const Trace& trace, StepperOptions options = {});

  const Trace& trace() const { return *trace_; }

  // ----- frontier queries ---------------------------------------------
  bool complete() const { return executed_count_ == trace_->num_events(); }
  std::size_t num_executed() const { return executed_count_; }
  const DynamicBitset& done_bits() const { return done_; }
  bool executed(EventId e) const { return done_.test(e); }

  /// The next unexecuted event of process `p`, or kNoEvent if finished.
  EventId next_of(ProcId p) const;

  /// True iff `e` is the next event of its process and every validity
  /// rule permits executing it now.
  bool enabled(EventId e) const;

  /// Appends all currently enabled events to `out` (cleared first),
  /// in process-id order.
  void enabled_events(std::vector<EventId>& out) const;

  // ----- mutation -------------------------------------------------------
  /// Opaque undo record for one apply().
  struct Undo {
    EventId event = kNoEvent;
    int old_count = 0;     ///< semaphore ops
    bool old_posted = false;  ///< post/clear
  };

  /// Executes `e` (must be enabled) and returns the undo record.
  Undo apply(EventId e);
  /// Reverts the most recent un-reverted apply (LIFO discipline).
  void undo(const Undo& u);

  // ----- state fingerprint ----------------------------------------------
  /// Encodes the scheduling-relevant state: per-process positions, event
  /// variable flags and binary-semaphore counts.  (Counting-semaphore
  /// counts are a function of the positions; binary counts are not,
  /// because clamped V operations do not commute with P.)  Two partial
  /// schedules with equal keys have identical futures.  The buffer is
  /// sized exactly (assign, no incremental push_back), so a reused
  /// buffer never reallocates after its first call.
  void encode_key(std::vector<std::uint64_t>& out) const;

  /// The bit-packed state layout (search/state_registry.hpp): positions
  /// at ceil(log2(len+1)) bits, event-variable and binary-parity bits
  /// inline.  The packed words are the only state encoding the stepper
  /// maintains, O(1) per apply/undo.
  const search::PackedStateLayout& layout() const { return layout_; }
  /// All packed words of the current state.
  const std::vector<std::uint64_t>& packed_words() const { return packed_; }
  /// The packed state as a single word — an exact, collision-free state
  /// key when layout().single_word().
  std::uint64_t packed_word() const { return packed_[0]; }

  /// 64-bit hash of packed_words(), computed when read: a pure function
  /// of the state, so equal states hash equal whatever schedule reached
  /// them.  On single-word layouts it is a bijection of the word.  Dedup
  /// engines fingerprint states with it when a tracker or a sleep set
  /// folds in (debug builds cross-check collisions against encode_key();
  /// see search/state_registry.hpp).
  std::uint64_t state_hash() const { return splitmix_words(packed_); }

  int sem_count(ObjectId sem) const { return counts_[sem]; }
  bool posted(ObjectId ev) const { return posted_.test(ev); }
  std::uint32_t position(ProcId p) const { return positions_[p]; }
  /// P operations executed so far on `sem` (maintained O(1) per
  /// apply/undo).  Dynamic independence (search/independence.hpp) uses it
  /// to decide when surplus tokens make V/V order causally invisible:
  /// the pops a semaphore will ever perform are fixed by the trace, so
  /// sem_count(sem) >= total P ops - executed_p(sem) means no token
  /// pushed from here on is ever consumed.
  std::uint32_t executed_p(ObjectId sem) const { return p_executed_[sem]; }
  /// Whether this stepper enforces the trace's D edges (F3).
  bool respects_dependences() const { return options_.respect_dependences; }

 private:
  const Trace* trace_;
  StepperOptions options_;

  std::vector<std::uint32_t> positions_;  ///< per-process executed prefix
  std::vector<int> counts_;               ///< semaphore counts
  std::vector<std::uint32_t> p_executed_;  ///< executed P ops per semaphore
  std::vector<bool> binary_;
  DynamicBitset posted_;
  DynamicBitset done_;
  std::size_t executed_count_ = 0;
  search::PackedStateLayout layout_;
  std::vector<std::uint64_t> packed_;  ///< bit-packed state, incremental

  /// D-predecessors per event (empty when dependences are ignored).
  std::vector<std::vector<EventId>> dep_preds_;
};

}  // namespace evord
