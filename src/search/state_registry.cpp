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
  const std::size_t n =
      std::bit_ceil(std::max<std::size_t>(1, config.initial_buckets));
  bucket_bits_ = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(std::countr_zero(n)), key_bits_);
  // Entries must fit one 64-bit read: rem_bits + value_bits <= 64.
  while (entry_width() > 64) ++bucket_bits_;
  buckets_.resize(std::size_t{1} << bucket_bits_);
  charged_ = heap_bytes();
}

void PackedStateRegistry::set_accountant(MemoryAccountant* accountant) noexcept {
  if (accountant_ == accountant) return;
  if (accountant_ != nullptr) accountant_->release(charged_);
  accountant_ = accountant;
  if (accountant_ != nullptr) accountant_->charge(charged_);
}

void PackedStateRegistry::charge(std::uint64_t bytes) noexcept {
  charged_ += bytes;
  if (accountant_ != nullptr) accountant_->charge(bytes);
}

void PackedStateRegistry::release(std::uint64_t bytes) noexcept {
  charged_ -= bytes;
  if (accountant_ != nullptr) accountant_->release(bytes);
}

std::uint64_t PackedStateRegistry::mix(std::uint64_t key) const noexcept {
  if (key_bits_ >= 64) return splitmix64(key);
  // Invertible mix within key_bits: odd multiplications mod 2^bits and
  // xorshifts are bijections, so distinct keys stay distinct and the
  // full key is recoverable from bucket + remainder bits.
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

PackedStateRegistry::Slot PackedStateRegistry::locate(
    std::uint64_t key) const {
  EVORD_DCHECK(key_bits_ >= 64 || (key >> key_bits_) == 0,
               "key wider than the registry's key_bits");
  Slot slot;
  slot.mixed = mix(key);
  const Bucket& b = buckets_[slot.mixed & mask_bits(bucket_bits_)];
  const std::uint64_t rem = slot.mixed >> bucket_bits_;
  const std::uint32_t w = entry_width();
  for (std::uint32_t i = 0; i < b.count; ++i) {
    const std::uint64_t e =
        read_bits(b.words, static_cast<std::uint64_t>(i) * w, w);
    if ((e >> value_bits_) == rem) {
      slot.found = true;
      slot.value = e & mask_bits(value_bits_);
      break;
    }
  }
  return slot;
}

std::uint64_t PackedStateRegistry::heap_bytes() const noexcept {
  std::uint64_t b = buckets_.capacity() * sizeof(Bucket);
  for (const Bucket& bk : buckets_) b += bk.words.capacity() * 8;
  return b;
}

void PackedStateRegistry::append(std::uint64_t mixed, std::uint64_t value) {
  maybe_grow();
  Bucket& b = buckets_[mixed & mask_bits(bucket_bits_)];
  const std::size_t old_cap = b.words.capacity();
  raw_append(b.words, b.count, entry_width(),
             ((mixed >> bucket_bits_) << value_bits_) | value);
  ++b.count;
  ++count_;
  if (b.words.capacity() != old_cap) {
    charge((b.words.capacity() - old_cap) * 8);
  }
}

void PackedStateRegistry::maybe_grow() {
  if (bucket_bits_ >= key_bits_) return;
  if (count_ + 1 <= kTargetFill * buckets_.size()) return;
  if (accountant_ != nullptr && accountant_->limit() != 0) {
    // A rehash transiently ~doubles the table's footprint.  Near the
    // budget we skip it (scans lengthen, results are unaffected) so the
    // memory overshoot past the limit stays small.
    if (accountant_->bytes() + bytes() >= accountant_->limit()) return;
  }
  const std::uint32_t old_w = entry_width();
  const std::uint32_t old_bb = bucket_bits_;
  std::vector<Bucket> grown(buckets_.size() * 2);
  const std::uint64_t vmask = mask_bits(value_bits_);
  for (std::size_t bi = 0; bi < buckets_.size(); ++bi) {
    const Bucket& ob = buckets_[bi];
    for (std::uint32_t i = 0; i < ob.count; ++i) {
      const std::uint64_t e =
          read_bits(ob.words, static_cast<std::uint64_t>(i) * old_w, old_w);
      const std::uint64_t rem = e >> value_bits_;
      // One remainder bit moves into the bucket index.
      Bucket& nb = grown[bi | ((rem & 1) << old_bb)];
      raw_append(nb.words, nb.count, old_w - 1,
                 ((rem >> 1) << value_bits_) | (e & vmask));
      ++nb.count;
    }
  }
  const std::uint64_t before = bytes();
  buckets_ = std::move(grown);
  bucket_bits_ = old_bb + 1;
  const std::uint64_t now = heap_bytes();
  if (now >= before) {
    charge(now - before);
  } else {
    release(before - now);
  }
}

void PackedStateRegistry::fail_if_injected() {
  if (fault::enabled() && fault::on_store_insert() && accountant_ != nullptr) {
    // Injected insertion failure: the store refuses to grow, surfaced
    // through the governed memory path (StopReason::kMemory).
    accountant_->exhaust();
  }
}

void PackedStateRegistry::check_payload(
    std::uint64_t key, const std::vector<std::uint64_t>* payload) {
  if (!verify_ || payload == nullptr) return;
  const auto [it, inserted] = payloads_.try_emplace(key, *payload);
  if (inserted) {
    const std::uint64_t d = payload->size() * sizeof(std::uint64_t);
    payload_bytes_ += d;
    charge(d);
  } else {
    EVORD_CHECK(it->second == *payload,
                "64-bit fingerprint collision: distinct payloads hash to "
                    << key);
  }
}

bool PackedStateRegistry::insert(std::uint64_t key,
                                 const std::vector<std::uint64_t>* payload) {
  fail_if_injected();
  const Slot slot = locate(key);
  if (!slot.found) append(slot.mixed, 0);
  check_payload(key, payload);
  return !slot.found;
}

bool PackedStateRegistry::store(std::uint64_t key, bool value,
                                const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 1, "store() requires a value bit");
  fail_if_injected();
  const Slot slot = locate(key);
  if (slot.found) {
    EVORD_CHECK(slot.value == static_cast<std::uint64_t>(value),
                "memoized value mismatch for fingerprint " << key);
  } else {
    append(slot.mixed, static_cast<std::uint64_t>(value));
  }
  check_payload(key, payload);
  return !slot.found;
}

bool PackedStateRegistry::lookup(std::uint64_t key, bool* value,
                                 const std::vector<std::uint64_t>* payload) {
  EVORD_DCHECK(value_bits_ == 1, "lookup() requires a value bit");
  const Slot slot = locate(key);
  if (!slot.found) return false;
  *value = slot.value != 0;
  check_payload(key, payload);
  return true;
}

}  // namespace evord::search
