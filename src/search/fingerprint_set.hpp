// Sharded state-key containers for state-space deduplication.
//
// Every explorer in the unified search core dedups or memoizes states
// through one of the two containers here, both thin fronts over the
// packed state layer (search/state_registry.hpp):
//   * ShardedFingerprintSet — membership only.  Used to dedup causal
//     classes, causal-class prefixes and deadlock-search states.
//   * FingerprintBoolMap    — key -> bool memo.  Used by the memoized
//     can-precede sweep (compute_can_precede, with its optional
//     coexistence matrix), where each state memoizes "is a complete
//     schedule reachable from here".
//
// Every store belongs to one search running on the calling thread, so
// neither container locks (docs/SEARCH.md §8).
//
// Keys are quotiented and bit-packed (see PackedStateRegistry), so a
// retained state costs a fraction of the historical 8/9 bytes; with
// exact packed keys (Config::exact_keys) the stores dedup
// collision-free.
//
// Collision safety net: with `verify_collisions` on (the default in
// !NDEBUG builds) the full word payload of each state key is retained
// per fingerprint and every hash-equal access is checked for genuine
// equality — a 64-bit collision between distinct payloads throws
// CheckError instead of silently pruning an unexplored state or reusing
// a wrong memo value.
// Memory accounting: attach a MemoryAccountant (search/memory.hpp) via
// set_accountant() and the store's real heap footprint (bucket arrays,
// packed entry words, retained payloads) is charged as it grows.  The
// deterministic fault layer (util/fault.hpp, kStoreFailAt) can make the
// K-th insertion "fail": the store then force-exhausts the accountant,
// so the owning search stops with StopReason::kMemory exactly as if the
// byte budget tripped.
#pragma once

#include <cstdint>
#include <vector>

#include "search/memory.hpp"
#include "search/search.hpp"
#include "search/state_registry.hpp"

namespace evord::search {

using ShardedFingerprintSet = PackedStateRegistry;

/// Store configuration for an explorer's dedup/memo store.  Engages
/// exact packed keys when the trace's whole scheduling state fits one
/// 64-bit word AND the search runs unreduced with no tracker state in
/// the dedup key (`pure_state_key`) — the store then dedups
/// collision-free on key_bits, storing each state in a fraction of 8
/// bytes.  Collision verification is dropped when keys are exact (no
/// collisions exist).
inline PackedStateRegistry::Config make_store_config(
    const Trace& trace, const SearchOptions& options, std::size_t num_shards,
    bool pure_state_key = true) {
  PackedStateRegistry::Config cfg;
  cfg.num_shards = num_shards;
  if (pure_state_key && options.reduction == ReductionMode::kOff) {
    const PackedStateLayout layout(trace);
    if (layout.single_word() && layout.key_bits() > 0) {
      cfg.exact_keys = true;
      cfg.key_bits = layout.key_bits();
    }
  }
  if (cfg.exact_keys) cfg.verify_collisions = false;
  return cfg;
}

/// Sharded key -> bool memo table.
/// The memoized predicate is deterministic, so a duplicate store of the
/// same value is a no-op and a re-store with a different value throws
/// CheckError.
class FingerprintBoolMap {
 public:
  /// Legacy nominal release-build bytes per memoized state, kept as the
  /// bench baseline for the bytes/state comparison rows.
  static constexpr std::uint64_t kBytesPerEntry = 9;

  /// `num_shards` is rounded up to a power of two (minimum 1).
  explicit FingerprintBoolMap(
      std::size_t num_shards = 16,
      bool verify_collisions = PackedStateRegistry::kVerifyByDefault)
      : core_(PackedStateRegistry::Config{num_shards, verify_collisions, 64,
                                          false, 1}) {}
  /// Full-config constructor (exact keys); value_bits is forced to 1.
  explicit FingerprintBoolMap(PackedStateRegistry::Config config)
      : core_((config.value_bits = 1, config)) {}

  FingerprintBoolMap(const FingerprintBoolMap&) = delete;
  FingerprintBoolMap& operator=(const FingerprintBoolMap&) = delete;

  bool verify_collisions() const noexcept { return core_.verify_collisions(); }
  bool exact_keys() const noexcept { return core_.exact_keys(); }
  std::size_t num_shards() const noexcept { return core_.num_shards(); }

  /// Attaches the accountant the store's footprint is charged to;
  /// nullptr detaches.
  void set_accountant(MemoryAccountant* accountant) noexcept {
    core_.set_accountant(accountant);
  }

  /// If `key` is memoized, writes its value to `*value` and returns
  /// true.  When verification is on and `payload` is non-null, a
  /// hash-equal hit with a different retained payload throws CheckError.
  bool lookup(std::uint64_t key, bool* value,
              const std::vector<std::uint64_t>* payload = nullptr) {
    return core_.lookup(key, value, payload);
  }

  /// Memoizes `key` -> `value`; returns true iff the key was newly
  /// inserted.  A re-store must carry the same value (checked); payload
  /// handling is as in lookup().
  bool store(std::uint64_t key, bool value,
             const std::vector<std::uint64_t>* payload = nullptr) {
    return core_.store(key, value, payload);
  }

  /// Total memoized states across all shards.
  std::uint64_t size() const { return core_.size(); }
  /// Heap bytes of the stored keys, debug payloads excluded (see
  /// PackedStateRegistry::bytes()).
  std::uint64_t bytes() const { return core_.bytes(); }

  /// Per-shard element counts (load-factor diagnostics).
  std::vector<std::uint64_t> shard_sizes() const {
    return core_.shard_sizes();
  }

 private:
  PackedStateRegistry core_;
};

}  // namespace evord::search
