// Packed state layer tests: layout round-trips against the legacy key
// encoding, incremental maintenance vs. from-scratch encoding, the state
// hash as a function of the packed words, registry semantics (quotiented
// keys, exact mode, bucket growth) against reference containers, the
// 64x64 transpose kernel and the PerStateBitset row arena.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "feasible/stepper.hpp"
#include "helpers.hpp"
#include "search/fingerprint_set.hpp"
#include "search/state_registry.hpp"
#include "trace/builder.hpp"
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

TEST(PackedRegistry, MatchesUnorderedSetThroughBucketDoubling) {
  Rng rng(123);
  PackedStateRegistry::Config cfg;
  cfg.num_shards = 4;
  cfg.verify_collisions = false;
  PackedStateRegistry set(cfg);
  std::unordered_set<std::uint64_t> ref;
  // Enough inserts to force several bucket doublings per shard, with a
  // duplicate-heavy key stream.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.next() % 6000;
    ASSERT_EQ(set.insert(key), ref.insert(key).second);
  }
  EXPECT_EQ(set.size(), ref.size());
  std::uint64_t shard_total = 0;
  for (const std::uint64_t s : set.shard_sizes()) shard_total += s;
  EXPECT_EQ(shard_total, ref.size());
  EXPECT_GT(set.bytes(), 0u);
}

TEST(PackedRegistry, ExactReducedWidthKeysNeverCollide) {
  // Inserting the full 12-bit key space exactly once each proves the
  // reduced-width mix is a bijection: any information loss would make a
  // fresh key look like a duplicate.
  PackedStateRegistry::Config cfg;
  cfg.num_shards = 4;
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
  search::FingerprintBoolMap memo(/*num_shards=*/2,
                                  /*verify_collisions=*/false);
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
