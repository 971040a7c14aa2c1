// The sharded 64-bit fingerprint containers behind every explorer's
// state dedup/memoization (search/fingerprint_set.hpp), including the
// debug collision safety net that keeps full payloads and cross-checks
// them on every hash-equal access.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "search/fingerprint_set.hpp"
#include "util/check.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/hash.hpp"

namespace evord {
namespace {

using search::FingerprintBoolMap;
using search::ShardedFingerprintSet;

TEST(FingerprintWords, DependsOnContentOrderAndSeed) {
  const std::vector<std::uint64_t> ab{1, 2};
  const std::vector<std::uint64_t> ba{2, 1};
  const std::uint64_t seed = DynamicBitset::kHashSeed;
  EXPECT_EQ(fingerprint_words(ab, seed), fingerprint_words({1, 2}, seed));
  EXPECT_NE(fingerprint_words(ab, seed), fingerprint_words(ba, seed));
  EXPECT_NE(fingerprint_words(ab, seed), fingerprint_words(ab, seed + 1));
}

TEST(ShardedFingerprintSet, InsertDeduplicates) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
    ShardedFingerprintSet set(shards, /*verify_collisions=*/false);
    EXPECT_TRUE(set.insert(7));
    EXPECT_TRUE(set.insert(8));
    EXPECT_FALSE(set.insert(7));
    EXPECT_EQ(set.size(), 2u);
  }
}

TEST(ShardedFingerprintSet, ShardCountRoundsUpToPowerOfTwo) {
  ShardedFingerprintSet set(/*num_shards=*/5);
  EXPECT_EQ(set.num_shards(), 8u);
  ShardedFingerprintSet one(/*num_shards=*/0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(ShardedFingerprintSet, VerifyAcceptsIdenticalPayloads) {
  ShardedFingerprintSet set(4, /*verify_collisions=*/true);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  EXPECT_TRUE(set.insert(99, &payload));
  // A true duplicate (same state re-reached) must dedup silently.
  EXPECT_FALSE(set.insert(99, &payload));
  EXPECT_EQ(set.size(), 1u);
}

TEST(ShardedFingerprintSet, VerifyThrowsOnRealCollision) {
  ShardedFingerprintSet set(4, /*verify_collisions=*/true);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  const std::vector<std::uint64_t> other{4, 5, 6};
  EXPECT_TRUE(set.insert(99, &payload));
  // Same 64-bit fingerprint, different underlying state: the safety net
  // must refuse to silently merge two distinct causal classes.
  EXPECT_THROW(set.insert(99, &other), CheckError);
}

TEST(ShardedFingerprintSet, NoVerifyIgnoresPayloads) {
  ShardedFingerprintSet set(4, /*verify_collisions=*/false);
  const std::vector<std::uint64_t> payload{1, 2, 3};
  const std::vector<std::uint64_t> other{4, 5, 6};
  EXPECT_TRUE(set.insert(99, &payload));
  EXPECT_FALSE(set.insert(99, &other));  // release path: dedup only
}

TEST(FingerprintBoolMap, StoreThenLookup) {
  FingerprintBoolMap memo(4, /*verify_collisions=*/false);
  EXPECT_TRUE(memo.store(10, true));
  EXPECT_TRUE(memo.store(11, false));
  EXPECT_FALSE(memo.store(10, true));  // duplicate store: not new
  bool value = false;
  ASSERT_TRUE(memo.lookup(10, &value));
  EXPECT_TRUE(value);
  ASSERT_TRUE(memo.lookup(11, &value));
  EXPECT_FALSE(value);
  EXPECT_FALSE(memo.lookup(12, &value));  // never memoized
  EXPECT_EQ(memo.size(), 2u);
}

TEST(FingerprintBoolMap, ShardCountRoundsUpToPowerOfTwo) {
  FingerprintBoolMap memo(/*num_shards=*/6);
  EXPECT_EQ(memo.num_shards(), 8u);
}

TEST(FingerprintBoolMap, VerifyThrowsOnRealCollision) {
  FingerprintBoolMap memo(4, /*verify_collisions=*/true);
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

TEST(FingerprintBoolMap, RestoreMustAgreeOnValue) {
  FingerprintBoolMap memo(1, /*verify_collisions=*/false);
  EXPECT_TRUE(memo.store(5, true));
  // The memoized predicate is deterministic; a disagreeing re-store
  // means the caller computed two different verdicts for one state.
  EXPECT_THROW(memo.store(5, false), CheckError);
}

}  // namespace
}  // namespace evord
