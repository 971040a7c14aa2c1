// Runtime state of the synchronization objects of a trace or program:
// semaphore counts and event-variable posted flags.
//
// Only the program scheduler uses this tiny state machine; the axiom
// validator's replay (trace/axioms.cpp) and TraceStepper
// (feasible/stepper.hpp) keep their own state under the same rules:
//   * counting semaphore: V increments, P decrements and is enabled only
//     when the count is positive (sequential consistency turns blocking
//     into an enabledness condition);
//   * binary semaphore: as above but V clamps the count at 1;
//   * event variable: Post sets, Clear resets, Wait is enabled only while
//     the variable is posted (and does not consume the post).
#pragma once

#include <vector>

#include "trace/trace.hpp"
#include "util/dynamic_bitset.hpp"

namespace evord {

class SyncState {
 public:
  SyncState() = default;
  SyncState(const std::vector<SemaphoreInfo>& semaphores,
            const std::vector<EventVarInfo>& event_vars);

  /// Enabledness of a synchronization operation in this state.  Fork,
  /// join and computation events are always enabled at this level (their
  /// ordering constraints are positional, handled by the caller).
  bool enabled(EventKind kind, ObjectId object) const;

  /// Applies an (enabled) operation.  Precondition: enabled().
  void apply(EventKind kind, ObjectId object);

  int sem_count(ObjectId sem) const { return counts_[sem]; }
  bool posted(ObjectId ev) const { return posted_.test(ev); }

  /// The posted flags, for composing state fingerprints.  (Semaphore
  /// counts are a function of per-process positions and need not be part
  /// of a positional state key; posted flags are not, because Post/Clear
  /// from different processes do not commute.)
  const DynamicBitset& posted_flags() const { return posted_; }

  bool operator==(const SyncState& o) const {
    return counts_ == o.counts_ && posted_ == o.posted_;
  }

 private:
  std::vector<int> counts_;
  std::vector<bool> binary_;
  DynamicBitset posted_;
};

}  // namespace evord
