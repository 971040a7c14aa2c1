// Packed state layer for the unified search core.
//
// Three pieces, shared by every explorer:
//
//   * PackedStateLayout — the bit-level schema of a scheduling state:
//     per-process positions at ceil(log2(len+1)) bits each, one bit per
//     event variable and one parity bit per binary semaphore, packed
//     little-endian into 64-bit words.  TraceStepper maintains the
//     packed words incrementally (O(1) per apply/undo) and derives its
//     64-bit state hash from them; when the whole state fits one word
//     (single_word()), that word IS an exact, collision-free state key
//     and the engines dedup on it directly instead of on the hash.
//     to_legacy_key() expands the packed words into the historical
//     TraceStepper::encode_key() layout, so the two encodings can be
//     cross-checked bit for bit.
//
//   * PerStateBitset / BitRow — a row arena for per-state side data
//     (closure matrices, done-before rows).  All rows share one
//     contiguous word vector, so trackers and accumulators stop paying
//     a heap allocation per state/row; BitRow exposes the word-parallel
//     operations the closure kernels need, plus transpose64() — an
//     in-place 64x64 bit-matrix transpose used to turn row-oriented
//     reachability into column-oriented ancestor masks in O(n^2/64).
//
//   * PackedStateRegistry — the search core's one state store: every
//     explorer dedups or memoizes its states in one.  Keys are
//     quotiented: an invertible mix of the key's low key_bits selects
//     the bucket from its low bits, and only the remaining
//     (key_bits - bucket_bits) remainder bits are stored, bit-packed
//     into per-bucket arrays, plus an optional value bit (a bool memo).
//     With exact single-word keys this stores states at a fraction of
//     the historical 8 bytes each; with 64-bit hash fingerprints it
//     still undercuts the old unordered_set node overhead.  Buckets
//     double (one remainder bit moves into the bucket index) when
//     average fill passes a threshold, so lookups stay short scans of
//     packed words.
//
// Collision safety net: with `verify_collisions` on (the default in
// !NDEBUG builds) the full word payload of each hashed key is retained
// and every hash-equal access is checked for genuine equality, so a
// 64-bit collision throws CheckError instead of silently pruning an
// unexplored state or reusing a wrong memo value.
//
// Memory accounting is real: the attached accountant is charged the
// store's actual heap footprint (bucket array + packed words + retained
// debug payloads) as it grows; bytes() reports the same footprint
// without the debug payloads, so Debug and Release builds agree.  The
// fault layer (util/fault.hpp, kStoreFailAt) can make the K-th insertion
// "fail": the store then exhausts the accountant, so the owning search
// stops with StopReason::kMemory as if the byte budget tripped.
//
// The registry takes no locks: every store belongs to one search running
// on one thread (docs/SEARCH.md §8).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "search/memory.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/dynamic_bitset.hpp"

namespace evord::search {

// ---------------------------------------------------------------------------
// PackedStateLayout
// ---------------------------------------------------------------------------

class PackedStateLayout {
 public:
  static constexpr std::uint32_t kNoBit = 0xffffffffu;

  PackedStateLayout() = default;
  explicit PackedStateLayout(const Trace& trace);

  /// Total bits of one packed state.
  std::uint32_t key_bits() const noexcept { return key_bits_; }
  /// Words backing one packed state (always >= 1 so word 0 is valid).
  std::size_t num_words() const noexcept { return num_words_; }
  /// True iff the whole state fits one 64-bit word — the packed word is
  /// then an exact (injective) state key.
  bool single_word() const noexcept { return key_bits_ <= 64; }

  std::size_t num_processes() const noexcept { return positions_.size(); }
  std::uint32_t position_offset(ProcId p) const { return positions_[p].offset; }
  std::uint32_t position_width(ProcId p) const { return positions_[p].width; }
  std::uint32_t posted_offset(ObjectId v) const { return posted_offset_[v]; }
  /// Parity-bit offset for semaphore `s`, or kNoBit for non-binary sems.
  std::uint32_t binary_offset(ObjectId s) const { return binary_offset_[s]; }

  /// Words of the historical TraceStepper::encode_key() encoding.
  std::size_t legacy_key_words() const noexcept {
    return legacy_pos_words_ + legacy_posted_words_ + legacy_bin_words_;
  }

  // ----- word-level field access (hot path; inline) ---------------------
  static std::uint64_t read_field(const std::uint64_t* words,
                                  std::uint32_t offset,
                                  std::uint32_t width) noexcept {
    if (width == 0) return 0;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    const std::size_t wi = offset >> 6;
    const std::uint32_t bo = offset & 63u;
    std::uint64_t v = words[wi] >> bo;
    if (bo + width > 64) v |= words[wi + 1] << (64 - bo);
    return v & mask;
  }
  static void write_field(std::uint64_t* words, std::uint32_t offset,
                          std::uint32_t width, std::uint64_t value) noexcept {
    if (width == 0) return;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    const std::size_t wi = offset >> 6;
    const std::uint32_t bo = offset & 63u;
    words[wi] = (words[wi] & ~(mask << bo)) | ((value & mask) << bo);
    if (bo + width > 64) {
      const std::uint64_t hi_mask = mask >> (64 - bo);
      words[wi + 1] =
          (words[wi + 1] & ~hi_mask) | ((value & mask) >> (64 - bo));
    }
  }
  static void toggle_bit(std::uint64_t* words, std::uint32_t offset) noexcept {
    words[offset >> 6] ^= std::uint64_t{1} << (offset & 63u);
  }
  static bool test_bit(const std::uint64_t* words,
                       std::uint32_t offset) noexcept {
    return (words[offset >> 6] >> (offset & 63u)) & 1u;
  }

  void set_position(std::uint64_t* words, ProcId p,
                    std::uint32_t pos) const noexcept {
    write_field(words, positions_[p].offset, positions_[p].width, pos);
  }
  std::uint32_t position(const std::uint64_t* words, ProcId p) const noexcept {
    return static_cast<std::uint32_t>(
        read_field(words, positions_[p].offset, positions_[p].width));
  }
  bool posted(const std::uint64_t* words, ObjectId v) const noexcept {
    return test_bit(words, posted_offset_[v]);
  }
  bool binary_parity(const std::uint64_t* words, ObjectId s) const noexcept {
    return test_bit(words, binary_offset_[s]);
  }

  /// Packs a full state (positions, event-variable flags, binary-sem
  /// parities) into `words` (resized to num_words()).
  void encode(const std::vector<std::uint32_t>& positions,
              const DynamicBitset& posted, const std::vector<int>& counts,
              const std::vector<bool>& binary,
              std::vector<std::uint64_t>& words) const;

  /// Expands packed `words` into the historical encode_key() layout:
  /// positions four-per-word at 16 bits, then all event-variable words,
  /// then (iff any binary semaphore exists) the parity bits.
  void to_legacy_key(const std::uint64_t* words,
                     std::vector<std::uint64_t>& out) const;

 private:
  struct Field {
    std::uint32_t offset = 0;
    std::uint32_t width = 0;
  };
  std::vector<Field> positions_;               ///< per process
  std::vector<std::uint32_t> posted_offset_;   ///< per event variable
  std::vector<std::uint32_t> binary_offset_;   ///< per semaphore (kNoBit
                                               ///< when not binary)
  std::uint32_t key_bits_ = 0;
  std::size_t num_words_ = 1;
  std::size_t legacy_pos_words_ = 0;
  std::size_t legacy_posted_words_ = 0;
  std::size_t legacy_bin_words_ = 0;
};

// ---------------------------------------------------------------------------
// 64x64 bit-matrix transpose
// ---------------------------------------------------------------------------

/// In-place transpose of a 64x64 bit matrix (m[i] bit j -> m[j] bit i);
/// the standard recursive block-swap, O(64 log 64) word ops.
void transpose64(std::uint64_t m[64]) noexcept;

// ---------------------------------------------------------------------------
// PerStateBitset: a row arena with word-parallel row operations
// ---------------------------------------------------------------------------

class ConstBitRow {
 public:
  ConstBitRow(const std::uint64_t* words, std::size_t bits) noexcept
      : words_(words), bits_(bits) {}

  std::size_t size() const noexcept { return bits_; }
  std::size_t word_count() const noexcept { return (bits_ + 63) / 64; }
  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }
  const std::uint64_t* words() const noexcept { return words_; }

  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63u)) & 1u;
  }
  std::size_t count() const noexcept;
  /// Copies the row into `out` (resized to size()).
  void to_bitset(DynamicBitset& out) const;

 private:
  const std::uint64_t* words_;
  std::size_t bits_;
};

class BitRow {
 public:
  BitRow(std::uint64_t* words, std::size_t bits) noexcept
      : words_(words), bits_(bits) {}

  operator ConstBitRow() const noexcept { return ConstBitRow(words_, bits_); }

  std::size_t size() const noexcept { return bits_; }
  std::size_t word_count() const noexcept { return (bits_ + 63) / 64; }
  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }
  std::uint64_t& word(std::size_t w) noexcept { return words_[w]; }
  std::uint64_t* words() noexcept { return words_; }

  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63u)) & 1u;
  }
  void set(std::size_t i) noexcept {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63u);
  }
  void reset(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63u));
  }
  void set(std::size_t i, bool v) noexcept { v ? set(i) : reset(i); }

  void reset_all() noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] = 0;
  }
  void set_all() noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] = ~std::uint64_t{0};
    trim();
  }
  std::size_t count() const noexcept {
    return ConstBitRow(words_, bits_).count();
  }
  void to_bitset(DynamicBitset& out) const {
    ConstBitRow(words_, bits_).to_bitset(out);
  }

  BitRow& operator|=(ConstBitRow o) noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] |= o.word(w);
    return *this;
  }
  BitRow& operator&=(ConstBitRow o) noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] &= o.word(w);
    return *this;
  }
  BitRow& subtract(ConstBitRow o) noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] &= ~o.word(w);
    return *this;
  }
  /// this := this | ~o, bits past size() kept clear.
  BitRow& or_complement(ConstBitRow o) noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] |= ~o.word(w);
    trim();
    return *this;
  }
  BitRow& assign(ConstBitRow o) noexcept {
    for (std::size_t w = 0; w < word_count(); ++w) words_[w] = o.word(w);
    return *this;
  }
  void trim() noexcept {
    const std::size_t rem = bits_ & 63u;
    if (rem != 0 && bits_ != 0) {
      words_[word_count() - 1] &= ~std::uint64_t{0} >> (64 - rem);
    }
  }

 private:
  std::uint64_t* words_;
  std::size_t bits_;
};

/// A read-only row view over a DynamicBitset's words, so the row
/// kernels mix arena rows and standalone bitsets freely.
inline ConstBitRow row_view(const DynamicBitset& b) noexcept {
  return ConstBitRow(b.data(), b.size());
}

/// Arena of `rows` equally sized bit rows backed by one word vector: no
/// per-row allocation, rows are cache-contiguous, and row r word w is at
/// a fixed offset for the transpose kernel.
class PerStateBitset {
 public:
  PerStateBitset() = default;
  PerStateBitset(std::size_t rows, std::size_t bits) { reset(rows, bits); }

  /// Re-shapes the arena to `rows` x `bits`, all zero.
  void reset(std::size_t rows, std::size_t bits) {
    rows_ = rows;
    bits_ = bits;
    wpr_ = (bits + 63) / 64;
    words_.assign(rows * wpr_, 0);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t bits() const noexcept { return bits_; }
  std::size_t words_per_row() const noexcept { return wpr_; }
  std::uint64_t bytes() const noexcept { return words_.capacity() * 8; }

  BitRow row(std::size_t r) noexcept {
    return BitRow(words_.data() + r * wpr_, bits_);
  }
  ConstBitRow row(std::size_t r) const noexcept {
    return ConstBitRow(words_.data() + r * wpr_, bits_);
  }
  std::uint64_t* data() noexcept { return words_.data(); }
  const std::uint64_t* data() const noexcept { return words_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t bits_ = 0;
  std::size_t wpr_ = 0;
  std::vector<std::uint64_t> words_;
};

// ---------------------------------------------------------------------------
// PackedStateRegistry
// ---------------------------------------------------------------------------

class PackedStateRegistry {
 public:
#ifndef NDEBUG
  static constexpr bool kVerifyByDefault = true;
#else
  static constexpr bool kVerifyByDefault = false;
#endif

  struct Config {
    /// Starting bucket count, rounded up to a power of two (minimum 1;
    /// clamped to 2^key_bits).  Each bucket costs 32 bytes empty, while
    /// every miss scans its whole bucket, so small state memos start at
    /// 1 and the causal-class stores at 16 (docs/SEARCH.md §8).
    std::size_t initial_buckets = 1;
    /// Retain full key payloads and check every hash-equal access for
    /// genuine equality (debug collision safety net).
    bool verify_collisions = kVerifyByDefault;
    /// Significant low bits of every key (1..64).  With exact packed
    /// keys this is the layout's key_bits; hashes use all 64.
    std::uint32_t key_bits = 64;
    /// Keys are injective state encodings, not hashes: a duplicate key
    /// IS a duplicate state, so no collision cross-check is needed.
    bool exact_keys = false;
    /// 0 = membership set; 1 = one value bit per key (bool map).
    std::uint32_t value_bits = 0;
  };

  explicit PackedStateRegistry(Config config);

  PackedStateRegistry(const PackedStateRegistry&) = delete;
  PackedStateRegistry& operator=(const PackedStateRegistry&) = delete;

  bool verify_collisions() const noexcept { return verify_; }
  bool exact_keys() const noexcept { return exact_keys_; }

  /// Attaches the accountant; the store's current resident bytes are
  /// charged immediately and future growth is charged/released as it
  /// happens.  nullptr detaches (and releases the store's charges).
  void set_accountant(MemoryAccountant* accountant) noexcept;

  /// Inserts `key`; returns true iff it was not present (the caller owns
  /// this element).  When collision verification is on and
  /// `payload` is non-null, the payload is retained on first insert and
  /// compared on every hash-equal re-insert; a mismatch (a true 64-bit
  /// collision) throws CheckError.
  bool insert(std::uint64_t key,
              const std::vector<std::uint64_t>* payload = nullptr);

  /// Memoizes `key` -> `value` (requires value_bits == 1); returns true
  /// iff newly inserted.  The memoized predicate is deterministic, so a
  /// re-store must carry the same value (checked); payload handling is
  /// as in insert().
  bool store(std::uint64_t key, bool value,
             const std::vector<std::uint64_t>* payload = nullptr);

  /// If `key` is memoized, writes its value to `*value` and returns
  /// true (requires value_bits == 1).
  bool lookup(std::uint64_t key, bool* value,
              const std::vector<std::uint64_t>* payload = nullptr);

  /// Total distinct keys.
  std::uint64_t size() const noexcept { return count_; }

  /// Actual heap bytes of the stored keys (bucket array, packed entry
  /// words).  Retained debug payloads are charged to the accountant but
  /// left out here, so this is the footprint a Release build reports.
  std::uint64_t bytes() const noexcept { return charged_ - payload_bytes_; }

 private:
  struct Bucket {
    std::vector<std::uint64_t> words;  ///< entries bit-packed LE
    std::uint32_t count = 0;
  };
  /// Where a key lives: its mixed form (low bucket_bits_ bits select the
  /// bucket, the rest is the stored remainder) and, when present, its
  /// value bits.
  struct Slot {
    std::uint64_t mixed = 0;
    bool found = false;
    std::uint64_t value = 0;
  };

  std::uint32_t entry_width() const noexcept {
    return key_bits_ - bucket_bits_ + value_bits_;
  }

  Slot locate(std::uint64_t key) const;
  void append(std::uint64_t mixed, std::uint64_t value);
  void maybe_grow();
  void fail_if_injected();
  void check_payload(std::uint64_t key,
                     const std::vector<std::uint64_t>* payload);
  std::uint64_t heap_bytes() const noexcept;
  void charge(std::uint64_t bytes) noexcept;
  void release(std::uint64_t bytes) noexcept;

  std::uint64_t mix(std::uint64_t key) const noexcept;

  std::vector<Bucket> buckets_;
  std::uint32_t bucket_bits_ = 0;
  std::uint64_t count_ = 0;  ///< distinct keys
  std::uint32_t key_bits_ = 64;
  std::uint32_t value_bits_ = 0;
  bool verify_ = false;
  bool exact_keys_ = false;
  MemoryAccountant* accountant_ = nullptr;
  std::uint64_t charged_ = 0;        ///< heap + payload bytes
  std::uint64_t payload_bytes_ = 0;  ///< retained debug payload bytes
  /// Populated only in collision-verification mode.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> payloads_;
};

/// RAII attachment of a store to a memory accountant: charges the
/// store's current footprint on construction, releases it (detaches) on
/// destruction.  A null store is a no-op, so callers can attach an
/// optional store unconditionally.
class ScopedAccountant {
 public:
  ScopedAccountant(PackedStateRegistry* store, MemoryAccountant* accountant)
      : store_(store) {
    if (store_ != nullptr) store_->set_accountant(accountant);
  }
  ~ScopedAccountant() {
    if (store_ != nullptr) store_->set_accountant(nullptr);
  }
  ScopedAccountant(const ScopedAccountant&) = delete;
  ScopedAccountant& operator=(const ScopedAccountant&) = delete;

 private:
  PackedStateRegistry* store_;
};

}  // namespace evord::search
