// Global memory accounting for the state-space search core.
//
// Every byte-bounded search shares one MemoryAccountant through its
// SharedContext: the fingerprint/memo stores charge it per retained
// entry (and per retained collision-check payload in verify builds),
// the scheduler charges donated task descriptors (seed / sleep
// buffers), and explorer front-ends charge witness buffers.  Engines
// poll exceeded() once per expanded state and stop with
// StopReason::kMemory — the same strict global contract as max_states:
// a budget of N bytes caps the COMBINED total across all workers at
// roughly N (overshoot is bounded by one state's charge per worker,
// since the poll follows the charge).
//
// charge() is monotone except for release(), which un-charges
// transient allocations (a donated task's buffers die with the task).
// exhaust() force-trips the budget regardless of the limit — the
// deterministic fault-injection layer uses it to model a failed store
// insertion (util/fault.hpp).
#pragma once

#include <atomic>
#include <cstdint>

namespace evord::search {

class MemoryAccountant {
 public:
  MemoryAccountant() = default;
  /// `limit_bytes` == 0 means unlimited (charges are still counted so
  /// stats can report them).
  explicit MemoryAccountant(std::uint64_t limit_bytes)
      : limit_(limit_bytes) {}

  MemoryAccountant(const MemoryAccountant&) = delete;
  MemoryAccountant& operator=(const MemoryAccountant&) = delete;

  std::uint64_t limit() const noexcept {
    return limit_.load(std::memory_order_relaxed);
  }

  /// Re-targets the budget (0 = unlimited).  Searches never resize their
  /// budget mid-run; this exists for long-lived accountants — the service
  /// layer's result cache shrinks or grows its byte budget at runtime and
  /// then evicts down to the new limit.
  void set_limit(std::uint64_t limit_bytes) noexcept {
    limit_.store(limit_bytes, std::memory_order_relaxed);
  }

  void charge(std::uint64_t bytes) noexcept {
    charged_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Un-charges a transient allocation (never drops below zero in
  /// well-paired use; pairing is the caller's contract).
  void release(std::uint64_t bytes) noexcept {
    charged_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Bytes currently charged across all threads (relaxed snapshot).
  std::uint64_t bytes() const noexcept {
    return charged_.load(std::memory_order_relaxed);
  }

  /// True once the budget is tripped: the charged total reached the
  /// limit, or exhaust() was called.  One relaxed load on the common
  /// (unlimited, un-exhausted) path.
  bool exceeded() const noexcept {
    if (exhausted_.load(std::memory_order_relaxed)) return true;
    const std::uint64_t limit = limit_.load(std::memory_order_relaxed);
    return limit != 0 &&
           charged_.load(std::memory_order_relaxed) >= limit;
  }

  /// Force-trips the budget (fault injection: a store insertion that
  /// "failed" behaves exactly like running out of memory).
  void exhaust() noexcept {
    exhausted_.store(true, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> limit_{0};
  std::atomic<std::uint64_t> charged_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace evord::search
