// Cross-query result cache for the analysis service core.
//
// Theorems 1-4 make every exact answer exponential-cost in the worst
// case, so a service that expects millions of overlapping queries
// (ROADMAP north star) must never pay for the same answer twice.  The
// ResultCache maps
//
//     trace fingerprint × query kind × semantics × options digest
//
// to an immutable, shared, type-erased result (OrderingRelations,
// DeadlockReport, RaceReport, cached anytime verdicts).  Every entry charges its approximate resident bytes to
// a per-cache MemoryAccountant (search/memory.hpp) and the cache evicts
// least-recently-used entries until it is back under budget, so it
// degrades instead of growing unboundedly — exactly the admission
// contract the search core itself follows.  Evicted results stay alive
// for whoever still holds their shared_ptr; a later query for an
// evicted key simply recomputes.
//
// Type safety is by key construction, not by RTTI: a QueryKind is
// written by exactly one value type (AnalysisSession is the only
// writer), so get<T>() with the matching T is an invariant of the
// service layer, documented per kind below.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ordering/relations.hpp"
#include "search/memory.hpp"
#include "util/hash.hpp"

namespace evord::service {

/// What a cache entry answers.  The value type per kind:
///   kRelations      -> OrderingRelations       (exact Table-1 matrices)
///   kDeadlock       -> DeadlockReport
///   kRaces          -> RaceReport              (detector folded into digest)
///   kAnytimeVerdict -> CachedVerdict (session.hpp; pair + ladder folded
///                      into digest, upgradeable in place)
enum class QueryKind : std::uint8_t {
  kRelations = 0,
  kDeadlock = 3,
  kRaces = 4,
  kAnytimeVerdict = 5,
};

struct CacheKey {
  /// Semantics byte for entries a semantics does not apply to.
  static constexpr std::uint8_t kNoSemantics = 0xff;

  std::uint64_t trace_fingerprint = 0;
  QueryKind kind = QueryKind::kRelations;
  std::uint8_t semantics = kNoSemantics;
  /// Digest of every option that can change the cached result —
  /// including budgets and thread counts, since the embedded SearchStats
  /// differ per configuration even when the matrices agree.
  std::uint64_t options_digest = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept {
    return static_cast<std::size_t>(hash_mix(
        (static_cast<std::uint64_t>(key.kind) << 8) | key.semantics,
        key.trace_fingerprint, key.options_digest));
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;    ///< currently charged
  std::size_t entries = 0;    ///< currently resident
  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class ResultCache {
 public:
  static constexpr std::uint64_t kDefaultBudgetBytes = 256ull << 20;

  /// `max_bytes` == 0 means unlimited (entries are still charged so
  /// stats report the footprint).
  explicit ResultCache(std::uint64_t max_bytes = kDefaultBudgetBytes)
      : accountant_(max_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Typed lookup; nullptr on miss.  T must be the kind's value type
  /// (see QueryKind).  A hit moves the entry to most-recently-used.
  template <class T>
  std::shared_ptr<const T> get(const CacheKey& key) {
    return std::static_pointer_cast<const T>(get_erased(key));
  }

  /// Inserts (or replaces) `key`, charging `approx_bytes`, then evicts
  /// LRU entries until back under budget.  Returns the stored pointer —
  /// valid for the caller even if the entry was immediately evicted
  /// (e.g. a single result bigger than the whole budget).
  template <class T>
  std::shared_ptr<const T> put(const CacheKey& key, T value,
                               std::uint64_t approx_bytes) {
    auto stored = std::make_shared<const T>(std::move(value));
    put_erased(key, stored, approx_bytes);
    return stored;
  }

  /// Drops everything (ops / test hook).
  void clear();

  /// Resizes the byte budget (0 = unlimited) and evicts down to it.
  void set_budget_bytes(std::uint64_t max_bytes);
  std::uint64_t budget_bytes() const { return accountant_.limit(); }

  /// Bytes currently charged by resident entries.
  std::uint64_t bytes() const { return accountant_.bytes(); }

  CacheStats stats() const;

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const void> value;
    std::uint64_t bytes = 0;
  };
  /// Bookkeeping overhead charged per entry on top of the payload.
  static constexpr std::uint64_t kEntryOverheadBytes = 96;

  std::shared_ptr<const void> get_erased(const CacheKey& key);
  void put_erased(const CacheKey& key, std::shared_ptr<const void> value,
                  std::uint64_t approx_bytes);
  void evict_to_budget_locked();
  void evict_one_locked();

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_;
  search::MemoryAccountant accountant_;
  CacheStats stats_;
};

}  // namespace evord::service
