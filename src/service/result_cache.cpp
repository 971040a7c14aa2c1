#include "service/result_cache.hpp"

namespace evord::service {

std::shared_ptr<const void> ResultCache::get_erased(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->value;
}

void ResultCache::put_erased(const CacheKey& key,
                             std::shared_ptr<const void> value,
                             std::uint64_t approx_bytes) {
  const std::uint64_t charge = approx_bytes + kEntryOverheadBytes;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place (anytime-verdict upgrade path) and promote.
    accountant_.release(it->second->bytes);
    it->second->value = std::move(value);
    it->second->bytes = charge;
    accountant_.charge(charge);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value), charge});
    index_.emplace(key, lru_.begin());
    accountant_.charge(charge);
  }
  ++stats_.insertions;
  evict_to_budget_locked();
}

void ResultCache::evict_to_budget_locked() {
  // A single entry larger than the whole budget evicts itself — the
  // caller still holds the shared_ptr put() returned, so the result is
  // usable; it just is not retained.
  while (accountant_.exceeded() && !lru_.empty()) evict_one_locked();
}

void ResultCache::evict_one_locked() {
  const Entry& victim = lru_.back();
  accountant_.release(victim.bytes);
  index_.erase(victim.key);
  lru_.pop_back();
  ++stats_.evictions;
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!lru_.empty()) evict_one_locked();
}

void ResultCache::set_budget_bytes(std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  accountant_.set_limit(max_bytes);
  evict_to_budget_locked();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.bytes = accountant_.bytes();
  out.entries = lru_.size();
  return out;
}

}  // namespace evord::service
