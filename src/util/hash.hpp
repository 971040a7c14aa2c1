// Shared 64-bit hashing primitives for the state-space search core.
//
// Four building blocks:
//   * splitmix64      — finalizer mix; turns any 64-bit value into a
//                       well-distributed one (store bucket selection,
//                       seeding);
//   * hash_mix        — salted two-operand mix: chains components into a
//                       running hash (sleep-set folds, option digests) or
//                       gives one XOR-combinable term per component (the
//                       causal tracker's incremental hashes);
//   * splitmix_words  — splitmix64 chain over a word sequence, the hash
//                       of a packed search state (TraceStepper);
//   * fingerprint_words — chained FNV-1a over a word sequence, the
//                       fingerprint of a materialized state key.
#pragma once

#include <cstdint>
#include <vector>

namespace evord {

/// splitmix64 finalizer: every output bit depends on every input bit.
inline std::uint64_t splitmix64(std::uint64_t h) noexcept {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

/// Salted splitmix64 mix of two operands.  Distinct salts give
/// independent hash families, so unrelated state components can be
/// XOR-combined into one incremental (Zobrist-style) hash.
inline std::uint64_t hash_mix(std::uint64_t salt, std::uint64_t a,
                              std::uint64_t b) noexcept {
  return splitmix64(salt ^ (a * 0x9e3779b97f4a7c15ull) ^
                    (b * 0xc2b2ae3d27d4eb4full));
}

/// splitmix64 chain over a word sequence: the hash of a packed search
/// state (TraceStepper::state_hash).  Each step is a bijection of the
/// incoming word, so on a single word the hash is injective.
inline std::uint64_t splitmix_words(
    const std::vector<std::uint64_t>& words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t w : words) h = splitmix64(h ^ w);
  return h;
}

/// Chained FNV-1a over a word sequence; seed with
/// DynamicBitset::kHashSeed (or a previous chain value).
inline std::uint64_t fingerprint_words(const std::vector<std::uint64_t>& words,
                                       std::uint64_t seed) noexcept {
  for (std::uint64_t w : words) {
    seed ^= w;
    seed *= 1099511628211ull;  // FNV prime
  }
  return seed;
}

}  // namespace evord
