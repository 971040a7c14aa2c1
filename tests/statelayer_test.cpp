// Packed state layer tests: layout round-trips against the legacy key
// encoding, incremental maintenance vs. from-scratch encoding, the state
// hash as a function of the packed words, the state store (quotiented
// keys, exact mode, bucket growth against reference containers, and the
// debug collision safety net that keeps full payloads and cross-checks
// them on every hash-equal access), the 64x64 transpose kernel and the
// PerStateBitset row arena.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "feasible/stepper.hpp"
#include "helpers.hpp"
#include "search/state_registry.hpp"
#include "trace/builder.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace evord {
namespace {

using search::PackedStateLayout;
using search::PackedStateRegistry;
using testing::RandomTraceConfig;
using testing::random_trace;

// ----------------------------------------------------------------------
// Layout round-trip: incremental packed words == from-scratch encoding,
// to_legacy_key() == encode_key(), and state_hash() == the hash of the
// from-scratch words, under random walks with undo.

std::vector<std::uint64_t> reference_packed(const Trace& trace,
                                            const TraceStepper& stepper) {
  const PackedStateLayout& layout = stepper.layout();
  std::vector<std::uint32_t> positions(trace.num_processes());
  for (ProcId p = 0; p < trace.num_processes(); ++p) {
    positions[p] = stepper.position(p);
  }
  DynamicBitset posted(trace.event_vars().size());
  for (ObjectId v = 0; v < trace.event_vars().size(); ++v) {
    if (stepper.posted(v)) posted.set(v);
  }
  std::vector<int> counts(trace.semaphores().size());
  std::vector<bool> binary(trace.semaphores().size());
  for (ObjectId s = 0; s < trace.semaphores().size(); ++s) {
    counts[s] = stepper.sem_count(s);
    binary[s] = trace.semaphores()[s].binary;
  }
  std::vector<std::uint64_t> words;
  layout.encode(positions, posted, counts, binary, words);
  return words;
}

TEST(PackedLayout, RoundTripsAgainstLegacyKeyUnderRandomWalks) {
  Rng rng(20260809);
  // The last iterations use wide traces, whose layouts span two or more
  // words.
  for (int iter = 0; iter < 48; ++iter) {
    const bool wide = iter >= 40;
    RandomTraceConfig config;
    config.num_processes = wide ? 40 + rng.below(8) : 2 + rng.below(4);
    config.num_semaphores = rng.below(3);
    config.num_event_vars = rng.below(3);
    config.num_events = wide ? 160 + rng.below(40) : 8 + rng.below(12);
    const Trace trace = random_trace(config, rng);
    TraceStepper stepper(trace, {});
    const PackedStateLayout& layout = stepper.layout();
    if (wide) {
      ASSERT_FALSE(layout.single_word());
    }

    // Distinct states of the walk never share a hash.
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        hash_to_words;
    std::vector<TraceStepper::Undo> undos;
    std::vector<EventId> enabled;
    std::vector<std::uint64_t> key, ref_key;
    for (int step = 0; step < 200; ++step) {
      // Check the current state before moving.
      const std::vector<std::uint64_t> ref = reference_packed(trace, stepper);
      ASSERT_EQ(stepper.packed_words(), ref);
      stepper.encode_key(key);
      layout.to_legacy_key(ref.data(), ref_key);
      ASSERT_EQ(key, ref_key);
      ASSERT_EQ(key.size(), layout.legacy_key_words());
      // Per-field decode matches the stepper's own view.
      for (ProcId p = 0; p < trace.num_processes(); ++p) {
        ASSERT_EQ(layout.position(ref.data(), p), stepper.position(p));
      }
      for (ObjectId v = 0; v < trace.event_vars().size(); ++v) {
        ASSERT_EQ(layout.posted(ref.data(), v), stepper.posted(v));
      }
      // The hash is a function of the packed words alone.
      const std::uint64_t hash = stepper.state_hash();
      ASSERT_EQ(hash, splitmix_words(ref));
      const auto [it, fresh] = hash_to_words.try_emplace(hash, ref);
      if (!fresh) {
        ASSERT_EQ(it->second, ref) << "hash collision in walk";
      }
      if (layout.single_word()) {
        // The packed word is injective: it IS the state.  The hash is a
        // bijection of it, so beyond the walk's states no one-bit
        // neighbour of the word, reached or not, shares its hash either.
        ASSERT_EQ(ref.size(), 1u);
        for (std::uint32_t b = 0; b < 64; ++b) {
          ASSERT_NE(splitmix_words({ref[0] ^ (std::uint64_t{1} << b)}), hash);
        }
      }

      stepper.enabled_events(enabled);
      const bool can_undo = !undos.empty();
      if (enabled.empty() || (can_undo && rng.chance(0.3))) {
        if (!can_undo) break;
        stepper.undo(undos.back());
        undos.pop_back();
      } else {
        undos.push_back(stepper.apply(enabled[rng.below(enabled.size())]));
      }
    }
  }
}

TEST(PackedLayout, EncodeKeyReusesTheCallerBuffer) {
  Rng rng(7);
  RandomTraceConfig config;
  config.num_processes = 4;
  config.num_semaphores = 2;
  config.num_event_vars = 2;
  config.num_events = 16;
  const Trace trace = random_trace(config, rng);
  TraceStepper stepper(trace, {});
  std::vector<std::uint64_t> key;
  stepper.encode_key(key);  // warm-up sizes the buffer exactly
  const std::uint64_t* data = key.data();
  const std::size_t capacity = key.capacity();
  std::vector<EventId> enabled;
  for (int step = 0; step < 50; ++step) {
    stepper.enabled_events(enabled);
    if (enabled.empty()) break;
    stepper.apply(enabled[0]);
    stepper.encode_key(key);
    ASSERT_EQ(key.data(), data) << "encode_key reallocated a warm buffer";
    ASSERT_EQ(key.capacity(), capacity);
  }
}

// ----------------------------------------------------------------------
// Registry semantics against reference containers.

/// A 64-bit hash-keyed store; `value_bits` 1 makes it a bool memo.
PackedStateRegistry hash_store(std::size_t initial_buckets, bool verify,
                               std::uint32_t value_bits = 0) {
  return PackedStateRegistry({.initial_buckets = initial_buckets,
                              .verify_collisions = verify,
                              .value_bits = value_bits});
}

TEST(PackedRegistry, MatchesUnorderedSetThroughBucketDoubling) {
  Rng rng(123);
  PackedStateRegistry set = hash_store(4, /*verify=*/false);
  std::unordered_set<std::uint64_t> ref;
  // Enough inserts to force several bucket doublings, with a
  // duplicate-heavy key stream.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.next() % 6000;
    ASSERT_EQ(set.insert(key), ref.insert(key).second);
  }
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_GT(set.bytes(), 0u);
}

TEST(PackedRegistry, ExactReducedWidthKeysNeverCollide) {
  // Inserting the full 12-bit key space exactly once each proves the
  // reduced-width mix is a bijection: any information loss would make a
  // fresh key look like a duplicate.
  PackedStateRegistry::Config cfg;
  cfg.initial_buckets = 4;
  cfg.exact_keys = true;
  cfg.key_bits = 12;
  cfg.verify_collisions = false;
  PackedStateRegistry set(cfg);
  ASSERT_TRUE(set.exact_keys());
  for (std::uint64_t k = 0; k < 4096; ++k) {
    ASSERT_TRUE(set.insert(k)) << "fresh key reported duplicate: " << k;
  }
  EXPECT_EQ(set.size(), 4096u);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    ASSERT_FALSE(set.insert(k)) << "duplicate key reported fresh: " << k;
  }
  EXPECT_EQ(set.size(), 4096u);
}

TEST(PackedRegistry, BoolMapMatchesUnorderedMap) {
  Rng rng(55);
  PackedStateRegistry memo = hash_store(2, /*verify=*/false,
                                        /*value_bits=*/1);
  std::unordered_map<std::uint64_t, bool> ref;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next() % 2000;
    const bool value = (key % 3) == 0;  // deterministic per key
    if (rng.chance(0.5)) {
      ASSERT_EQ(memo.store(key, value), ref.emplace(key, value).second);
    } else {
      bool got = false;
      const auto it = ref.find(key);
      ASSERT_EQ(memo.lookup(key, &got), it != ref.end());
      if (it != ref.end()) {
        ASSERT_EQ(got, it->second);
      }
    }
  }
  EXPECT_EQ(memo.size(), ref.size());
}

TEST(PackedRegistry, InitialBucketsRoundUpAndClampToKeyWidth) {
  // 5 buckets round up to 8: the empty tables are the same size.
  EXPECT_EQ(hash_store(5, false).bytes(), hash_store(8, false).bytes());
  // More buckets than keys: the table clamps to 2^key_bits buckets and
  // stores no remainder bits, yet still dedups and memoizes.
  for (std::uint32_t bits = 1; bits <= 4; ++bits) {
    const std::uint64_t keys = std::uint64_t{1} << bits;
    PackedStateRegistry set({.initial_buckets = 16,
                             .verify_collisions = false,
                             .key_bits = bits,
                             .exact_keys = true});
    for (std::uint64_t k = 0; k < keys; ++k) {
      ASSERT_TRUE(set.insert(k)) << bits << " bits, key " << k;
    }
    for (std::uint64_t k = 0; k < keys; ++k) {
      ASSERT_FALSE(set.insert(k)) << bits << " bits, key " << k;
    }
    EXPECT_EQ(set.size(), keys);

    PackedStateRegistry memo({.initial_buckets = 16,
                              .verify_collisions = false,
                              .key_bits = bits,
                              .exact_keys = true,
                              .value_bits = 1});
    for (std::uint64_t k = 0; k < keys; ++k) {
      ASSERT_TRUE(memo.store(k, (k & 1) != 0));
    }
    for (std::uint64_t k = 0; k < keys; ++k) {
      bool value = false;
      ASSERT_TRUE(memo.lookup(k, &value)) << bits << " bits, key " << k;
      EXPECT_EQ(value, (k & 1) != 0) << bits << " bits, key " << k;
    }
    EXPECT_EQ(memo.size(), keys);
  }
}

TEST(PackedRegistry, VerifyAcceptsIdenticalPayloads) {
  PackedStateRegistry set = hash_store(4, /*verify=*/true);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  EXPECT_TRUE(set.insert(99, &payload));
  // A true duplicate (same state re-reached) must dedup silently.
  EXPECT_FALSE(set.insert(99, &payload));
  EXPECT_EQ(set.size(), 1u);
}

TEST(PackedRegistry, VerifyThrowsOnRealCollision) {
  PackedStateRegistry set = hash_store(4, /*verify=*/true);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  const std::vector<std::uint64_t> other{4, 5, 6};
  EXPECT_TRUE(set.insert(99, &payload));
  // Same 64-bit fingerprint, different underlying state: the safety net
  // must refuse to silently merge two distinct causal classes.
  EXPECT_THROW(set.insert(99, &other), CheckError);
}

TEST(PackedRegistry, NoVerifyIgnoresPayloads) {
  PackedStateRegistry set = hash_store(4, /*verify=*/false);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  const std::vector<std::uint64_t> other{4, 5, 6};
  EXPECT_TRUE(set.insert(99, &payload));
  EXPECT_FALSE(set.insert(99, &other));  // release path: dedup only
}

TEST(PackedRegistry, BoolMapVerifyThrowsOnRealCollision) {
  PackedStateRegistry memo = hash_store(4, /*verify=*/true, /*value_bits=*/1);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  const std::vector<std::uint64_t> other{4, 5, 6};
  EXPECT_TRUE(memo.store(99, true, &payload));
  bool value = false;
  EXPECT_TRUE(memo.lookup(99, &value, &payload));  // true duplicate: fine
  // Same fingerprint, different state: a silent hit would reuse the
  // wrong memoized verdict, so the safety net throws instead.
  EXPECT_THROW(memo.lookup(99, &value, &other), CheckError);
  EXPECT_THROW(memo.store(99, true, &other), CheckError);
}

TEST(PackedRegistry, RestoreMustAgreeOnValue) {
  PackedStateRegistry memo = hash_store(1, /*verify=*/false, /*value_bits=*/1);
  EXPECT_TRUE(memo.store(5, true));
  // The memoized predicate is deterministic; a disagreeing re-store
  // means the caller computed two different verdicts for one state.
  EXPECT_THROW(memo.store(5, false), CheckError);
}

// ----------------------------------------------------------------------
// transpose64 and the PerStateBitset row arena.

TEST(Transpose64, IsAnInvolutionAndSwapsIndices) {
  Rng rng(2024);
  std::uint64_t m[64], t[64];
  for (int i = 0; i < 64; ++i) m[i] = rng.next();
  std::copy(std::begin(m), std::end(m), std::begin(t));
  search::transpose64(t);
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ((t[j] >> i) & 1u, (m[i] >> j) & 1u)
          << "bit (" << i << ", " << j << ")";
    }
  }
  search::transpose64(t);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(t[i], m[i]);
}

TEST(PerStateBitset, RowOperationsMatchDynamicBitset) {
  Rng rng(31337);
  for (const std::size_t bits : {1ul, 63ul, 64ul, 65ul, 130ul, 200ul}) {
    search::PerStateBitset arena;
    arena.reset(3, bits);
    DynamicBitset a(bits), b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.chance(0.4)) {
        arena.row(0).set(i);
        a.set(i);
      }
      if (rng.chance(0.4)) {
        arena.row(1).set(i);
        b.set(i);
      }
    }
    DynamicBitset got(bits);

    search::BitRow r2 = arena.row(2);
    r2.assign(arena.row(0));
    r2 |= arena.row(1);
    r2.to_bitset(got);
    EXPECT_EQ(got, a | b) << bits;

    r2.assign(arena.row(0));
    r2 &= arena.row(1);
    r2.to_bitset(got);
    EXPECT_EQ(got, a & b) << bits;

    r2.assign(arena.row(0));
    r2.subtract(arena.row(1));
    r2.to_bitset(got);
    EXPECT_EQ(got, DynamicBitset(a).subtract(b)) << bits;

    // or_complement must keep bits past `bits` clear in the last word.
    r2.assign(arena.row(0));
    r2.or_complement(arena.row(1));
    r2.to_bitset(got);
    EXPECT_EQ(got, DynamicBitset(a).or_complement(b)) << bits;
    EXPECT_EQ(arena.row(2).count(), got.count()) << bits;

    // set_all respects the row width (no bleed into row 0 of the arena's
    // neighbors, no ghost bits past the width).
    r2.set_all();
    EXPECT_EQ(arena.row(2).count(), bits);
    arena.row(0).to_bitset(got);
    EXPECT_EQ(got, a) << "set_all corrupted a neighboring row";
  }
}

}  // namespace
}  // namespace evord
