#include "search/state_registry.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/fault.hpp"
#include "util/hash.hpp"

namespace evord::search {

// ---------------------------------------------------------------------------
// PackedStateLayout
// ---------------------------------------------------------------------------

PackedStateLayout::PackedStateLayout(const Trace& trace) {
  std::uint32_t off = 0;
  positions_.reserve(trace.num_processes());
  for (ProcId p = 0; p < trace.num_processes(); ++p) {
    const auto len = trace.program_order(p).size();
    // positions range over [0, len]: ceil(log2(len + 1)) bits.
    const auto width = static_cast<std::uint32_t>(std::bit_width(len));
    positions_.push_back(Field{off, width});
    off += width;
  }
  posted_offset_.reserve(trace.event_vars().size());
  for (std::size_t v = 0; v < trace.event_vars().size(); ++v) {
    posted_offset_.push_back(off++);
  }
  std::size_t num_binary = 0;
  binary_offset_.reserve(trace.semaphores().size());
  for (const SemaphoreInfo& s : trace.semaphores()) {
    if (s.binary) {
      binary_offset_.push_back(off++);
      ++num_binary;
    } else {
      binary_offset_.push_back(kNoBit);
    }
  }
  key_bits_ = off;
  num_words_ = std::max<std::size_t>(1, (key_bits_ + 63) / 64);
  legacy_pos_words_ = (trace.num_processes() + 3) / 4;
  legacy_posted_words_ = (trace.event_vars().size() + 63) / 64;
  legacy_bin_words_ = num_binary == 0 ? 0 : (num_binary + 63) / 64;
}

void PackedStateLayout::encode(const std::vector<std::uint32_t>& positions,
                               const DynamicBitset& posted,
                               const std::vector<int>& counts,
                               const std::vector<bool>& binary,
                               std::vector<std::uint64_t>& words) const {
  words.assign(num_words_, 0);
  for (ProcId p = 0; p < positions_.size(); ++p) {
    set_position(words.data(), p, positions[p]);
  }
  for (std::size_t v = 0; v < posted_offset_.size(); ++v) {
    if (posted.test(v)) toggle_bit(words.data(), posted_offset_[v]);
  }
  for (std::size_t s = 0; s < binary_offset_.size(); ++s) {
    if (binary[s] && (counts[s] & 1) != 0) {
      toggle_bit(words.data(), binary_offset_[s]);
    }
  }
}

void PackedStateLayout::to_legacy_key(const std::uint64_t* words,
                                      std::vector<std::uint64_t>& out) const {
  out.assign(legacy_key_words(), 0);
  for (ProcId p = 0; p < positions_.size(); ++p) {
    const std::uint64_t pos = position(words, p);
    out[p / 4] |= pos << (16 * (p % 4));
  }
  for (std::size_t v = 0; v < posted_offset_.size(); ++v) {
    if (test_bit(words, posted_offset_[v])) {
      out[legacy_pos_words_ + v / 64] |= std::uint64_t{1} << (v % 64);
    }
  }
  std::size_t k = 0;
  for (std::size_t s = 0; s < binary_offset_.size(); ++s) {
    if (binary_offset_[s] == kNoBit) continue;
    if (test_bit(words, binary_offset_[s])) {
      out[legacy_pos_words_ + legacy_posted_words_ + k / 64] |=
          std::uint64_t{1} << (k % 64);
    }
    ++k;
  }
}

// ---------------------------------------------------------------------------
// transpose64
// ---------------------------------------------------------------------------

void transpose64(std::uint64_t m[64]) noexcept {
  // Recursive block swap (Hacker's Delight 7-3), LSB-first convention:
  // bit j of m[i] is M[i][j].
  std::uint64_t mask = 0x00000000ffffffffull;
  for (std::uint32_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::uint32_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

// ---------------------------------------------------------------------------
// ConstBitRow
// ---------------------------------------------------------------------------

std::size_t ConstBitRow::count() const noexcept {
  std::size_t n = 0;
  for (std::size_t w = 0; w < word_count(); ++w) {
    n += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return n;
}

void ConstBitRow::to_bitset(DynamicBitset& out) const {
  out.resize(bits_);
  for (std::size_t w = 0; w < word_count(); ++w) out.word(w) = words_[w];
}

// ---------------------------------------------------------------------------
// PackedStateRegistry
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kTargetFill = 64;  ///< avg entries/bucket before grow

std::uint64_t mask_bits(std::uint32_t bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

/// Reads `width` bits at absolute bit offset `bit` (width <= 64; the
/// word vector is sized so the read never runs past the end).
std::uint64_t read_bits(const std::vector<std::uint64_t>& words,
                        std::uint64_t bit, std::uint32_t width) noexcept {
  if (width == 0) return 0;
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const std::uint32_t bo = static_cast<std::uint32_t>(bit & 63u);
  std::uint64_t v = words[wi] >> bo;
  if (bo + width > 64) v |= words[wi + 1] << (64 - bo);
  return v & mask_bits(width);
}

void write_bits(std::vector<std::uint64_t>& words, std::uint64_t bit,
                std::uint32_t width, std::uint64_t value) noexcept {
  if (width == 0) return;
  const std::uint64_t mask = mask_bits(width);
  const std::size_t wi = static_cast<std::size_t>(bit >> 6);
  const std::uint32_t bo = static_cast<std::uint32_t>(bit & 63u);
  words[wi] = (words[wi] & ~(mask << bo)) | ((value & mask) << bo);
  if (bo + width > 64) {
    const std::uint64_t hi_mask = mask >> (64 - bo);
    words[wi + 1] = (words[wi + 1] & ~hi_mask) | ((value & mask) >> (64 - bo));
  }
}

/// Appends one `width`-bit entry with exact (reserve-then-resize) word
/// growth, so resident bytes track the live entries tightly.
void raw_append(std::vector<std::uint64_t>& words, std::uint32_t count,
                std::uint32_t width, std::uint64_t entry) {
  const std::uint64_t end_bit =
      (static_cast<std::uint64_t>(count) + 1) * width;
  const std::size_t need = static_cast<std::size_t>((end_bit + 63) / 64);
  if (need > words.size()) {
    if (need > words.capacity()) words.reserve(need);
    words.resize(need, 0);
  }
  write_bits(words, static_cast<std::uint64_t>(count) * width, width, entry);
}

}  // namespace

PackedStateRegistry::PackedStateRegistry(Config config)
    : verify_(config.verify_collisions), exact_keys_(config.exact_keys) {
  key_bits_ = std::clamp<std::uint32_t>(config.key_bits, 1, 64);
  value_bits_ = config.value_bits;
  EVORD_CHECK(value_bits_ <= 1, "registry supports at most one value bit");
  std::size_t n = std::bit_ceil(std::max<std::size_t>(1, config.num_shards));
  auto sb = static_cast<std::uint32_t>(std::countr_zero(n));
  if (sb > key_bits_) {
    sb = key_bits_;
    n = std::size_t{1} << sb;
  }
  shard_bits_ = sb;
  max_bucket_bits_ = key_bits_ - shard_bits_;
  // Entries must fit one 64-bit read: rem_bits + value_bits <= 64.
  std::uint32_t init_bucket_bits = 0;
  while (key_bits_ - shard_bits_ - init_bucket_bits + value_bits_ > 64) {
    ++init_bucket_bits;
  }
  shards_.resize(n);
  for (Shard& s : shards_) {
    s.bucket_bits = init_bucket_bits;
    s.buckets.resize(std::size_t{1} << init_bucket_bits);
    s.resident_bytes = shard_heap_bytes(s);
    charged_ += s.resident_bytes;
  }
}

void PackedStateRegistry::set_accountant(MemoryAccountant* accountant) noexcept {
  if (accountant_ == accountant) return;
  if (accountant_ != nullptr) accountant_->release(charged_);
  accountant_ = accountant;
  if (accountant_ != nullptr) accountant_->charge(charged_);
}

std::uint64_t PackedStateRegistry::mix(std::uint64_t key) const noexcept {
  if (key_bits_ >= 64) return splitmix64(key);
  // Invertible mix within key_bits: odd multiplications mod 2^bits and
  // xorshifts are bijections, so distinct keys stay distinct and the
  // full key is recoverable from shard + bucket + remainder bits.
  const std::uint64_t mask = mask_bits(key_bits_);
  const std::uint32_t h = (key_bits_ + 1) / 2;
  std::uint64_t x = key & mask;
  x ^= x >> h;
  x = (x * 0x9e3779b97f4a7c15ull) & mask;
  x ^= x >> h;
  x = (x * 0xbf58476d1ce4e5b9ull) & mask;
  x ^= x >> h;
  return x;
}

std::int64_t PackedStateRegistry::find_in_bucket(
    const Bucket& b, std::uint64_t rem, std::uint32_t width,
    std::uint32_t value_bits) noexcept {
  for (std::uint32_t i = 0; i < b.count; ++i) {
    const std::uint64_t e =
        read_bits(b.words, static_cast<std::uint64_t>(i) * width, width);
    if ((e >> value_bits) == rem) return i;
  }
  return -1;
}

std::uint64_t PackedStateRegistry::read_entry(const Bucket& b,
                                              std::uint64_t idx,
                                              std::uint32_t width) noexcept {
  return read_bits(b.words, idx * width, width);
}

std::uint64_t PackedStateRegistry::shard_heap_bytes(
    const Shard& s) const noexcept {
  std::uint64_t b = s.buckets.capacity() * sizeof(Bucket);
  for (const Bucket& bk : s.buckets) b += bk.words.capacity() * 8;
  return b;
}

void PackedStateRegistry::recount_shard_bytes(Shard& s) noexcept {
  const std::uint64_t now = shard_heap_bytes(s);
  if (now >= s.resident_bytes) {
    const std::uint64_t d = now - s.resident_bytes;
    charged_ += d;
    if (accountant_ != nullptr) accountant_->charge(d);
  } else {
    const std::uint64_t d = s.resident_bytes - now;
    charged_ -= d;
    if (accountant_ != nullptr) accountant_->release(d);
  }
  s.resident_bytes = now;
}

void PackedStateRegistry::append_entry(Shard& s, Bucket& b,
                                       std::uint64_t entry) {
  const std::uint32_t w = entry_width(s);
  const std::size_t old_cap = b.words.capacity();
  raw_append(b.words, b.count, w, entry);
  ++b.count;
  if (b.words.capacity() != old_cap) {
    const std::uint64_t d = (b.words.capacity() - old_cap) * 8;
    s.resident_bytes += d;
    charged_ += d;
    if (accountant_ != nullptr) accountant_->charge(d);
  }
}

void PackedStateRegistry::maybe_grow(Shard& s) {
  if (s.bucket_bits >= max_bucket_bits_) return;
  const std::uint64_t buckets = std::uint64_t{1} << s.bucket_bits;
  if (s.count + 1 <= kTargetFill * buckets) return;
  if (accountant_ != nullptr && accountant_->limit() != 0) {
    // A rehash transiently ~doubles this shard's footprint.  Near the
    // budget we skip it (scans lengthen, results are unaffected) so the
    // memory overshoot past the limit stays small.
    if (accountant_->bytes() + shard_heap_bytes(s) >= accountant_->limit()) {
      return;
    }
  }
  const std::uint32_t old_w = entry_width(s);
  const std::uint32_t old_bb = s.bucket_bits;
  const std::uint32_t new_w = old_w - 1;
  std::vector<Bucket> grown(std::size_t{1} << (old_bb + 1));
  const std::uint64_t vmask = mask_bits(value_bits_);
  for (std::size_t bi = 0; bi < s.buckets.size(); ++bi) {
    const Bucket& ob = s.buckets[bi];
    for (std::uint32_t i = 0; i < ob.count; ++i) {
      const std::uint64_t e = read_entry(ob, i, old_w);
      const std::uint64_t value = e & vmask;
      const std::uint64_t rem = e >> value_bits_;
      // One remainder bit moves into the bucket index.
      Bucket& nb = grown[bi | ((rem & 1) << old_bb)];
      raw_append(nb.words, nb.count, new_w,
                 ((rem >> 1) << value_bits_) | value);
      ++nb.count;
    }
  }
  s.buckets = std::move(grown);
  s.bucket_bits = old_bb + 1;
  recount_shard_bytes(s);
}

void PackedStateRegistry::check_payload(
    Shard& s, std::uint64_t key, const std::vector<std::uint64_t>* payload) {
  if (!verify_ || payload == nullptr) return;
  const auto [it, inserted] = s.payloads.try_emplace(key, *payload);
  if (inserted) {
    const std::uint64_t d = payload->size() * sizeof(std::uint64_t);
    s.payload_bytes += d;
    charged_ += d;
    if (accountant_ != nullptr) accountant_->charge(d);
  } else {
    EVORD_CHECK(it->second == *payload,
                "64-bit fingerprint collision: distinct payloads hash to "
                    << key);
  }
}

bool PackedStateRegistry::insert(std::uint64_t key,
                                 const std::vector<std::uint64_t>* payload) {
  if (fault::enabled() && fault::on_store_insert() && accountant_ != nullptr) {
    // Injected insertion failure: the store refuses to grow, surfaced
    // through the governed memory path (StopReason::kMemory).
    accountant_->exhaust();
  }
  EVORD_DCHECK(key_bits_ >= 64 || (key >> key_bits_) == 0,
               "key wider than the registry's key_bits");
  const std::uint64_t mixed = mix(key);
  Shard& s = shards_[mixed & mask_bits(shard_bits_)];
  bool inserted = false;
  const std::uint32_t w = entry_width(s);
  const std::uint64_t bi = (mixed >> shard_bits_) & mask_bits(s.bucket_bits);
  const std::uint64_t rem = mixed >> (shard_bits_ + s.bucket_bits);
  if (find_in_bucket(s.buckets[bi], rem, w, value_bits_) < 0) {
    maybe_grow(s);
    const std::uint64_t bi2 = (mixed >> shard_bits_) & mask_bits(s.bucket_bits);
    const std::uint64_t rem2 = mixed >> (shard_bits_ + s.bucket_bits);
    append_entry(s, s.buckets[bi2], rem2 << value_bits_);
    ++s.count;
    inserted = true;
  }
  check_payload(s, key, payload);
  return inserted;
}

bool PackedStateRegistry::store(std::uint64_t key, bool value,
                                const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 1, "store() requires a value bit");
  if (fault::enabled() && fault::on_store_insert() && accountant_ != nullptr) {
    accountant_->exhaust();
  }
  const std::uint64_t mixed = mix(key);
  Shard& s = shards_[mixed & mask_bits(shard_bits_)];
  bool inserted = false;
  const std::uint32_t w = entry_width(s);
  const std::uint64_t bi = (mixed >> shard_bits_) & mask_bits(s.bucket_bits);
  const std::uint64_t rem = mixed >> (shard_bits_ + s.bucket_bits);
  const std::int64_t at = find_in_bucket(s.buckets[bi], rem, w, value_bits_);
  if (at >= 0) {
    const std::uint64_t e =
        read_entry(s.buckets[bi], static_cast<std::uint64_t>(at), w);
    EVORD_CHECK((e & 1u) == static_cast<std::uint64_t>(value),
                "memoized value mismatch for fingerprint " << key);
  } else {
    maybe_grow(s);
    const std::uint64_t bi2 = (mixed >> shard_bits_) & mask_bits(s.bucket_bits);
    const std::uint64_t rem2 = mixed >> (shard_bits_ + s.bucket_bits);
    append_entry(s, s.buckets[bi2],
                 (rem2 << 1) | static_cast<std::uint64_t>(value));
    ++s.count;
    inserted = true;
  }
  check_payload(s, key, payload);
  return inserted;
}

bool PackedStateRegistry::lookup(std::uint64_t key, bool* value,
                                 const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 1, "lookup() requires a value bit");
  const std::uint64_t mixed = mix(key);
  Shard& s = shards_[mixed & mask_bits(shard_bits_)];
  const std::uint32_t w = entry_width(s);
  const std::uint64_t bi = (mixed >> shard_bits_) & mask_bits(s.bucket_bits);
  const std::uint64_t rem = mixed >> (shard_bits_ + s.bucket_bits);
  const std::int64_t at = find_in_bucket(s.buckets[bi], rem, w, value_bits_);
  if (at < 0) return false;
  const std::uint64_t e =
      read_entry(s.buckets[bi], static_cast<std::uint64_t>(at), w);
  *value = (e & 1u) != 0;
  check_payload(s, key, payload);
  return true;
}

std::uint64_t PackedStateRegistry::size() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.count;
  return total;
}

std::uint64_t PackedStateRegistry::bytes() const {
  std::uint64_t payload = 0;
  for (const Shard& shard : shards_) payload += shard.payload_bytes;
  return charged_ - payload;
}

std::vector<std::uint64_t> PackedStateRegistry::shard_sizes() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(shards_.size());
  for (const Shard& shard : shards_) sizes.push_back(shard.count);
  return sizes;
}

}  // namespace evord::search
