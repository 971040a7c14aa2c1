#include "util/fault.hpp"

#ifndef EVORD_NO_FAULT_INJECTION
#include <atomic>
#endif

#include "util/hash.hpp"

namespace evord::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDeadlineAtState:
      return "deadline-at-state";
    case FaultKind::kStoreFailAt:
      return "store-fail-at";
    case FaultKind::kAcceptFail:
      return "accept-fail";
    case FaultKind::kMidFrameDisconnect:
      return "mid-frame-disconnect";
    case FaultKind::kSlowLoris:
      return "slow-loris";
  }
  return "unknown";
}

std::uint64_t FaultPlan::resolved_threshold() const {
  if (threshold != 0) return threshold;
  return 1 + (splitmix64(seed) % 97);
}

#ifndef EVORD_NO_FAULT_INJECTION

namespace {

// One process-global armed plan.  `enabled` is the only field touched
// on the disarmed fast path; the plan fields are written before the
// release-store to `enabled` and read after acquire-loads, so hook
// threads started after arm() see a consistent plan.
struct FaultState {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint8_t> kind{0};
  std::atomic<std::uint64_t> threshold{0};
  std::atomic<std::uint32_t> stall_micros{0};
  std::atomic<std::uint64_t> states{0};
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> accepts{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<bool> tripped{false};
};

FaultState g_fault;

}  // namespace

bool enabled() noexcept {
  return g_fault.enabled.load(std::memory_order_relaxed);
}

void arm(const FaultPlan& plan) {
  g_fault.enabled.store(false, std::memory_order_seq_cst);
  g_fault.kind.store(static_cast<std::uint8_t>(plan.kind),
                     std::memory_order_relaxed);
  g_fault.threshold.store(plan.resolved_threshold(),
                          std::memory_order_relaxed);
  g_fault.stall_micros.store(plan.stall_micros, std::memory_order_relaxed);
  g_fault.states.store(0, std::memory_order_relaxed);
  g_fault.inserts.store(0, std::memory_order_relaxed);
  g_fault.accepts.store(0, std::memory_order_relaxed);
  g_fault.frames.store(0, std::memory_order_relaxed);
  g_fault.tripped.store(false, std::memory_order_relaxed);
  g_fault.enabled.store(plan.kind != FaultKind::kNone,
                        std::memory_order_release);
}

void disarm() {
  g_fault.enabled.store(false, std::memory_order_release);
}

std::uint64_t states_observed() {
  return g_fault.states.load(std::memory_order_relaxed);
}

std::uint64_t inserts_observed() {
  return g_fault.inserts.load(std::memory_order_relaxed);
}

bool tripped() { return g_fault.tripped.load(std::memory_order_relaxed); }

bool on_state_expanded() noexcept {
  if (!g_fault.enabled.load(std::memory_order_acquire)) return false;
  if (static_cast<FaultKind>(g_fault.kind.load(std::memory_order_relaxed)) !=
      FaultKind::kDeadlineAtState) {
    return false;
  }
  const std::uint64_t n =
      g_fault.states.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= g_fault.threshold.load(std::memory_order_relaxed)) {
    g_fault.tripped.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool on_store_insert() noexcept {
  if (!g_fault.enabled.load(std::memory_order_acquire)) return false;
  if (static_cast<FaultKind>(g_fault.kind.load(std::memory_order_relaxed)) !=
      FaultKind::kStoreFailAt) {
    return false;
  }
  const std::uint64_t n =
      g_fault.inserts.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= g_fault.threshold.load(std::memory_order_relaxed)) {
    g_fault.tripped.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool on_accept_connection() noexcept {
  if (!g_fault.enabled.load(std::memory_order_acquire)) return false;
  if (static_cast<FaultKind>(g_fault.kind.load(std::memory_order_relaxed)) !=
      FaultKind::kAcceptFail) {
    return false;
  }
  const std::uint64_t n =
      g_fault.accepts.fetch_add(1, std::memory_order_relaxed) + 1;
  // The FIRST `threshold` accepts fail; later ones proceed, so a test
  // observes both the failure and the recovery on one armed plan.
  if (n <= g_fault.threshold.load(std::memory_order_relaxed)) {
    g_fault.tripped.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

FrameSendAction on_frame_send() noexcept {
  if (!g_fault.enabled.load(std::memory_order_acquire)) {
    return FrameSendAction::kProceed;
  }
  const auto kind =
      static_cast<FaultKind>(g_fault.kind.load(std::memory_order_relaxed));
  if (kind != FaultKind::kMidFrameDisconnect && kind != FaultKind::kSlowLoris) {
    return FrameSendAction::kProceed;
  }
  const std::uint64_t n =
      g_fault.frames.fetch_add(1, std::memory_order_relaxed) + 1;
  // One-shot: exactly the #threshold-th frame is sabotaged, so the
  // connection before and after the fault carries well-formed frames.
  if (n != g_fault.threshold.load(std::memory_order_relaxed)) {
    return FrameSendAction::kProceed;
  }
  g_fault.tripped.store(true, std::memory_order_relaxed);
  return kind == FaultKind::kMidFrameDisconnect ? FrameSendAction::kDisconnect
                                                : FrameSendAction::kStall;
}

std::uint32_t frame_stall_micros() noexcept {
  const std::uint32_t micros =
      g_fault.stall_micros.load(std::memory_order_relaxed);
  return micros != 0 ? micros : 200'000;
}

std::uint64_t accepts_observed() {
  return g_fault.accepts.load(std::memory_order_relaxed);
}

std::uint64_t frames_observed() {
  return g_fault.frames.load(std::memory_order_relaxed);
}

#endif  // EVORD_NO_FAULT_INJECTION

}  // namespace evord::fault
