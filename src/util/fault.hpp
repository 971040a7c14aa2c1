// Deterministic fault injection for the search core.
//
// A FaultPlan arms exactly one failure at a deterministic point:
//
//   * kDeadlineAtState — the engines' deadline poll reports "expired"
//     once the global expanded-state count reaches the threshold, so a
//     search stops with StopReason::kDeadline at state N regardless of
//     the wall clock.
//   * kStoreFailAt    — the fingerprint/memo store's threshold-th
//     insertion "fails": the store force-exhausts the search's
//     MemoryAccountant, so the engines stop with StopReason::kMemory
//     exactly as if the byte budget had tripped.
//   * kStealStall     — every steal attempt by the targeted worker (or
//     all workers) first sleeps briefly, stressing the termination
//     protocol's idle path without changing any result.
//   * kStealPoison    — every steal attempt by the targeted worker
//     fails (the worker can run only tasks pushed to its own deque).
//     Results must still be bit-identical: the parallel explorers'
//     results do not depend on which worker ran which task.
//
// The threshold may be given explicitly or derived from `seed`, and all
// counters are process-global atomics, so a given plan replays the same
// failure point on every run (serial runs are exactly deterministic;
// parallel runs trip at the same global count).
//
// Cost when disarmed: one relaxed atomic load per hook site.  Defining
// EVORD_NO_FAULT_INJECTION compiles every hook down to a constant so
// zero-overhead builds are possible; the default build keeps the hooks
// so one binary serves both testing and production (bench_robust pins
// the disarmed overhead at <= 2%).
//
// Arm/disarm from at most one thread, and not while a search is
// running — tests wrap each searched region in a ScopedFaultPlan.
#pragma once

#include <cstddef>
#include <cstdint>

namespace evord::fault {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kDeadlineAtState,  ///< trip the deadline at expanded state #threshold
  kStoreFailAt,      ///< fail the #threshold-th store insertion
  kStealStall,       ///< stall the targeted worker's steal attempts
  kStealPoison,      ///< make the targeted worker's steals always fail
  // Network fault points (the evord daemon and its client library):
  kAcceptFail,          ///< drop the first #threshold accepted connections
  kMidFrameDisconnect,  ///< sever the #threshold-th frame send mid-frame
  kSlowLoris,           ///< stall the #threshold-th frame send mid-frame
};

const char* to_string(FaultKind kind);

/// All workers (for the steal faults).
inline constexpr std::size_t kAnyWorker = static_cast<std::size_t>(-1);

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  /// Trip point for kDeadlineAtState / kStoreFailAt.  0 = derive from
  /// `seed` (resolved_threshold()), so seed-only plans replay exactly.
  std::uint64_t threshold = 0;
  /// Target worker id for the steal faults; kAnyWorker targets all.
  std::size_t worker = kAnyWorker;
  /// Replay seed: derives the threshold when it is 0.
  std::uint64_t seed = 0;
  /// Stall duration for kSlowLoris (and an override for kStealStall).
  /// 0 keeps the defaults: 200 ms for kSlowLoris — comfortably past any
  /// realistic daemon idle timeout — and 50 us for kStealStall.
  std::uint32_t stall_micros = 0;

  /// The effective trip point: `threshold`, or a deterministic function
  /// of `seed` in [1, 97] when threshold == 0.
  std::uint64_t resolved_threshold() const;
};

#ifndef EVORD_NO_FAULT_INJECTION

/// True iff a plan is armed (one relaxed load; the fast path everywhere).
bool enabled() noexcept;

/// Arms `plan` and resets all trip counters.  The previous plan (if
/// any) is replaced.
void arm(const FaultPlan& plan);

/// Disarms fault injection; hooks become no-ops again.
void disarm();

/// Counters observed by the armed plan so far (test provenance).
std::uint64_t states_observed();
std::uint64_t inserts_observed();
std::uint64_t steals_observed();
/// True iff the armed plan's trip point has been reached at least once.
bool tripped();

// ---- hook sites (called by the search core) ----

/// Engines call this once per expanded state.  Returns true once a
/// kDeadlineAtState plan's threshold is reached (sticky).
bool on_state_expanded() noexcept;

/// Stores call this once per (attempted) insertion.  Returns true once
/// a kStoreFailAt plan's threshold is reached (sticky) — the caller
/// then exhausts its MemoryAccountant.
bool on_store_insert() noexcept;

/// What a steal attempt should do.
enum class StealAction : std::uint8_t {
  kProceed = 0,
  kStall,   ///< sleep briefly, then proceed
  kPoison,  ///< report the steal as failed
};

/// Schedulers call this before each steal attempt by `worker`.
StealAction on_steal_attempt(std::size_t worker) noexcept;

// ---- network hook sites (called by the daemon / client library) ----

/// The daemon's accept loop calls this once per accepted connection.
/// Returns true while a kAcceptFail plan injects — the caller then drops
/// the connection as if accept(2) itself had failed (first `threshold`
/// accepts fail, later ones proceed, so recovery is exercised too).
bool on_accept_connection() noexcept;

/// What a frame sender should do with the current frame.
enum class FrameSendAction : std::uint8_t {
  kProceed = 0,
  kDisconnect,  ///< write a partial frame, then close the socket
  kStall,       ///< write a partial frame, sleep, then finish it
};

/// Frame writers call this once per outgoing frame.  The #threshold-th
/// frame is sabotaged exactly once per armed plan (kMidFrameDisconnect /
/// kSlowLoris); every other frame proceeds.
FrameSendAction on_frame_send() noexcept;

/// Stall duration an armed kSlowLoris plan asks senders to honour.
std::uint32_t frame_stall_micros() noexcept;

/// Network counters observed by the armed plan (test provenance).
std::uint64_t accepts_observed();
std::uint64_t frames_observed();

#else  // EVORD_NO_FAULT_INJECTION: every hook is a compile-time no-op.

inline bool enabled() noexcept { return false; }
inline void arm(const FaultPlan&) {}
inline void disarm() {}
inline std::uint64_t states_observed() { return 0; }
inline std::uint64_t inserts_observed() { return 0; }
inline std::uint64_t steals_observed() { return 0; }
inline bool tripped() { return false; }
inline bool on_state_expanded() noexcept { return false; }
inline bool on_store_insert() noexcept { return false; }
enum class StealAction : std::uint8_t { kProceed = 0, kStall, kPoison };
inline StealAction on_steal_attempt(std::size_t) noexcept {
  return StealAction::kProceed;
}
inline bool on_accept_connection() noexcept { return false; }
enum class FrameSendAction : std::uint8_t { kProceed = 0, kDisconnect, kStall };
inline FrameSendAction on_frame_send() noexcept {
  return FrameSendAction::kProceed;
}
inline std::uint32_t frame_stall_micros() noexcept { return 0; }
inline std::uint64_t accepts_observed() { return 0; }
inline std::uint64_t frames_observed() { return 0; }

#endif  // EVORD_NO_FAULT_INJECTION

/// RAII arm/disarm for tests: the plan is armed for the scope's
/// lifetime and disarmed (with counters left readable until the next
/// arm) on exit.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) { arm(plan); }
  ~ScopedFaultPlan() { disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace evord::fault
