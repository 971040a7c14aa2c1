#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "util/check.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace evord {
namespace {

// ---------------------------------------------------------------- check

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(EVORD_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Check, FailingCheckThrowsWithMessage) {
  try {
    EVORD_CHECK(false, "the answer is " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"),
              std::string::npos);
  }
}

// -------------------------------------------------------- dynamic bitset

TEST(DynamicBitset, StartsAllZero) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(DynamicBitset, ConstructAllOnes) {
  DynamicBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.all());
}

TEST(DynamicBitset, SetResetTest) {
  DynamicBitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynamicBitset, SetWithValue) {
  DynamicBitset b(10);
  b.set(3, true);
  EXPECT_TRUE(b.test(3));
  b.set(3, false);
  EXPECT_FALSE(b.test(3));
}

TEST(DynamicBitset, FlipTogglesBit) {
  DynamicBitset b(10);
  b.flip(5);
  EXPECT_TRUE(b.test(5));
  b.flip(5);
  EXPECT_FALSE(b.test(5));
}

TEST(DynamicBitset, FindFirstAndNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(3);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 3u);
  EXPECT_EQ(b.find_next(3), 64u);
  EXPECT_EQ(b.find_next(64), 199u);
  EXPECT_EQ(b.find_next(199), 200u);
}

TEST(DynamicBitset, IterationVisitsAllSetBits) {
  DynamicBitset b(300);
  const std::set<std::size_t> expected{0, 1, 63, 64, 65, 128, 299};
  for (std::size_t i : expected) b.set(i);
  std::set<std::size_t> seen;
  for (std::size_t i = b.find_first(); i < b.size(); i = b.find_next(i)) {
    seen.insert(i);
  }
  EXPECT_EQ(seen, expected);
}

TEST(DynamicBitset, BitwiseOps) {
  DynamicBitset a(70);
  DynamicBitset b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_EQ((a ^ b).count(), 2u);
  DynamicBitset c = a;
  c.subtract(b);
  EXPECT_TRUE(c.test(1));
  EXPECT_FALSE(c.test(65));
}

TEST(DynamicBitset, SizeMismatchThrows) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_THROW(a |= b, CheckError);
}

TEST(DynamicBitset, SubsetAndIntersects) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.set(10);
  b.set(10);
  b.set(20);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  a.reset(10);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.is_subset_of(b));  // empty set
}

TEST(DynamicBitset, ResizeGrowZeroAndOne) {
  DynamicBitset b(10);
  b.set(9);
  b.resize(100);
  EXPECT_TRUE(b.test(9));
  EXPECT_EQ(b.count(), 1u);
  b.resize(130, true);
  EXPECT_EQ(b.count(), 1u + 30u);
  EXPECT_TRUE(b.test(100));
  EXPECT_FALSE(b.test(99));
}

TEST(DynamicBitset, ResizeShrinkTrims) {
  DynamicBitset b(100, true);
  b.resize(10);
  EXPECT_EQ(b.count(), 10u);
  b.resize(100);
  EXPECT_EQ(b.count(), 10u);  // regrown bits are zero
}

TEST(DynamicBitset, SetAllRespectsSize) {
  DynamicBitset b(67);
  b.set_all();
  EXPECT_EQ(b.count(), 67u);
  b.reset_all();
  EXPECT_EQ(b.count(), 0u);
}

TEST(DynamicBitset, EqualityAndHash) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  EXPECT_EQ(a, b);
  a.set(42);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
  b.set(42);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(DynamicBitset, HashWordsChains) {
  DynamicBitset a(70);
  a.set(3);
  a.set(69);
  DynamicBitset b(70);
  b.set(3);
  b.set(69);
  // Same words, same seed -> same hash; different seed -> different chain.
  EXPECT_EQ(a.hash_words(DynamicBitset::kHashSeed),
            b.hash_words(DynamicBitset::kHashSeed));
  EXPECT_NE(a.hash_words(DynamicBitset::kHashSeed), a.hash_words(12345));
  // Chaining a over b differs from b over a (order sensitivity).
  DynamicBitset c(70);
  c.set(1);
  EXPECT_NE(c.hash_words(a.hash_words(DynamicBitset::kHashSeed)),
            a.hash_words(c.hash_words(DynamicBitset::kHashSeed)));
}

TEST(FingerprintWords, DependsOnContentOrderAndSeed) {
  const std::vector<std::uint64_t> ab{1, 2};
  const std::vector<std::uint64_t> ba{2, 1};
  const std::uint64_t seed = DynamicBitset::kHashSeed;
  EXPECT_EQ(fingerprint_words(ab, seed), fingerprint_words({1, 2}, seed));
  EXPECT_NE(fingerprint_words(ab, seed), fingerprint_words(ba, seed));
  EXPECT_NE(fingerprint_words(ab, seed), fingerprint_words(ab, seed + 1));
}

TEST(DynamicBitset, OrComplement) {
  DynamicBitset a(70);
  a.set(0);
  DynamicBitset mask(70);
  mask.set(0);
  mask.set(68);
  // a |= ~mask: everything except bit 68 ends up set (bit 0 was already).
  a.or_complement(mask);
  EXPECT_EQ(a.count(), 69u);
  EXPECT_TRUE(a.test(0));
  EXPECT_FALSE(a.test(68));
  EXPECT_TRUE(a.test(69));  // tail bits beyond the last word boundary
}

TEST(DynamicBitset, SubtractClearsMaskedBits) {
  DynamicBitset a(70);
  a.set(2);
  a.set(65);
  DynamicBitset mask(70);
  mask.set(65);
  a.subtract(mask);
  EXPECT_TRUE(a.test(2));
  EXPECT_FALSE(a.test(65));
  EXPECT_EQ(a.count(), 1u);
}

TEST(DynamicBitset, ToString) {
  DynamicBitset b(5);
  b.set(1);
  b.set(4);
  EXPECT_EQ(b.to_string(), "01001");
}

TEST(DynamicBitset, EmptyBitset) {
  DynamicBitset b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.find_first(), 0u);
  EXPECT_TRUE(b.none());
}

TEST(DynamicBitset, WordIterationCoversEveryBit) {
  // Block iteration (word() / word_count() / data()) must see exactly
  // the set bits, at sizes around the 64-bit block boundary.
  for (const std::size_t bits : {1ul, 63ul, 64ul, 65ul, 127ul, 130ul}) {
    DynamicBitset b(bits);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < bits; i += 7) {
      b.set(i);
      expected.push_back(i);
    }
    ASSERT_EQ(b.word_count(), (bits + 63) / 64) << bits;
    ASSERT_EQ(b.data()[0], b.word(0)) << bits;
    std::vector<std::size_t> got;
    for (std::size_t w = 0; w < b.word_count(); ++w) {
      std::uint64_t word = b.word(w);
      while (word != 0) {
        got.push_back(w * 64 +
                      static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
    EXPECT_EQ(got, expected) << bits;
  }
}

TEST(DynamicBitset, CountMatchesWordPopcounts) {
  Rng rng(17);
  for (const std::size_t bits : {63ul, 64ul, 65ul, 129ul, 1000ul}) {
    DynamicBitset b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.chance(0.37)) b.set(i);
    }
    std::size_t pop = 0;
    for (std::size_t w = 0; w < b.word_count(); ++w) {
      pop += static_cast<std::size_t>(std::popcount(b.word(w)));
    }
    EXPECT_EQ(b.count(), pop) << bits;
  }
}

TEST(DynamicBitset, AndOrAssignAtNonWordMultipleSizes) {
  Rng rng(23);
  for (const std::size_t bits : {1ul, 63ul, 65ul, 127ul, 130ul}) {
    DynamicBitset a(bits), b(bits);
    std::vector<bool> ra(bits), rb(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      ra[i] = rng.chance(0.5);
      rb[i] = rng.chance(0.5);
      if (ra[i]) a.set(i);
      if (rb[i]) b.set(i);
    }
    DynamicBitset o = a;
    o |= b;
    DynamicBitset n = a;
    n &= b;
    for (std::size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(o.test(i), ra[i] || rb[i]) << bits << ":" << i;
      ASSERT_EQ(n.test(i), ra[i] && rb[i]) << bits << ":" << i;
    }
    // The last partial word must stay trimmed: no ghost bits past size()
    // can leak into count() or equality.
    o |= o;
    EXPECT_LE(o.count(), bits);
    DynamicBitset all(bits, true);
    all &= all;
    EXPECT_EQ(all.count(), bits);
    all |= o;
    EXPECT_EQ(all.count(), bits);
  }
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit with overwhelming prob.
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --------------------------------------------------------- string utils

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringUtil, SplitKeepsEmptyPieces) {
  const auto parts = split("a, b,, c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int(" 13 "), 13);
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4 2").has_value());
  EXPECT_FALSE(parse_int("999999999999999999999999").has_value());
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("hello world", "hello"));
  EXPECT_FALSE(starts_with("hel", "hello"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

// ---------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.micros(), 0u);
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, GenerousBudgetNotExpired) {
  Deadline d(3600.0);
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 3599.0);
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_TRUE(d.expired());
}

// -------------------------------------------------------------- logging

TEST(Logging, SinkReceivesMessagesAtOrAboveLevel) {
  static std::vector<std::string>* captured = nullptr;
  std::vector<std::string> messages;
  captured = &messages;
  LogSink old = set_log_sink([](LogLevel, const std::string& m) {
    captured->push_back(m);
  });
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);
  EVORD_LOG_DEBUG << "dropped";
  EVORD_LOG_INFO << "kept " << 1;
  EVORD_LOG_ERROR << "kept " << 2;
  set_log_sink(old);
  set_log_level(old_level);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], "kept 1");
  EXPECT_EQ(messages[1], "kept 2");
}

}  // namespace
}  // namespace evord
