#include "mdtask/service/result_cache.h"

namespace mdtask::service {

ResultCache::Lookup ResultCache::lookup_or_join(const RequestKey& key) {
  if (!config_.enabled) {
    ++stats_.misses;
    return {Outcome::kMiss, nullptr};
  }
  const auto hit = entries_.find(key);
  if (hit != entries_.end()) {
    ++stats_.hits;
    lru_.erase(hit->second.lru);
    lru_.push_front(key);
    hit->second.lru = lru_.begin();
    return {Outcome::kHit, hit->second.payload};
  }
  if (inflight_.contains(key)) {
    ++stats_.inflight_joins;
    return {Outcome::kJoined, nullptr};
  }
  ++stats_.misses;
  inflight_.insert(key);
  return {Outcome::kMiss, nullptr};
}

void ResultCache::fulfill(const RequestKey& key, const CachedResult& result) {
  if (!config_.enabled) return;
  inflight_.erase(key);
  if (result.ok() && result.value() != nullptr &&
      entries_.find(key) == entries_.end()) {
    lru_.push_front(key);
    entries_[key] = Entry{result.value(), lru_.begin()};
    bytes_ += result.value()->charge();
    ++stats_.insertions;
    evict_to_capacity();
  }
}

std::size_t ResultCache::invalidate_store(std::uint64_t store) {
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->store != store) {
      ++it;
      continue;
    }
    const auto entry = entries_.find(*it);
    if (entry != entries_.end()) {
      bytes_ -= entry->second.payload->charge() <= bytes_
                    ? entry->second.payload->charge()
                    : bytes_;
      entries_.erase(entry);
    }
    it = lru_.erase(it);
    ++dropped;
  }
  stats_.invalidations += dropped;
  return dropped;
}

std::shared_ptr<const ResultPayload> ResultCache::lookup_stale(
    const RequestKey& key) {
  if (!config_.enabled) return nullptr;
  // Front of lru_ is most recently used: the first match is the
  // freshest stale candidate.
  for (const RequestKey& cached : lru_) {
    if (cached.store == key.store || cached.family != key.family ||
        cached.params != key.params) {
      continue;
    }
    const auto entry = entries_.find(cached);
    if (entry == entries_.end()) continue;
    auto stale = std::make_shared<ResultPayload>(*entry->second.payload);
    stale->stale = true;
    ++stats_.stale_serves;
    return stale;
  }
  return nullptr;
}

void ResultCache::evict_to_capacity() {
  while (!lru_.empty() && (entries_.size() > config_.max_entries ||
                           bytes_ > config_.max_bytes)) {
    const RequestKey victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    if (it != entries_.end()) {
      bytes_ -= it->second.payload->charge() <= bytes_
                    ? it->second.payload->charge()
                    : bytes_;
      entries_.erase(it);
      ++stats_.evictions;
    }
  }
}

ResultCache::Stats ResultCache::stats() const {
  return stats_;
}

std::size_t ResultCache::entries() const {
  return entries_.size();
}

std::uint64_t ResultCache::bytes() const {
  return bytes_;
}

}  // namespace mdtask::service
