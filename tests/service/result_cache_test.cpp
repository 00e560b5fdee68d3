#include "mdtask/service/result_cache.h"

#include <gtest/gtest.h>

#include <memory>

namespace mdtask::service {
namespace {

RequestKey key_of(std::uint64_t store, std::uint64_t params = 0) {
  RequestKey key;
  key.store = store;
  key.family = 0;
  key.params = params;
  return key;
}

CachedResult payload_of(double value, std::uint64_t weight = 0) {
  auto payload = std::make_shared<const ResultPayload>(
      ResultPayload{{value}, weight});
  return CachedResult(std::move(payload));
}

TEST(ResultCacheTest, MissThenFulfillThenHit) {
  ResultCache cache;
  const RequestKey key = key_of(1);

  const auto miss = cache.lookup_or_join(key);
  EXPECT_EQ(miss.outcome, ResultCache::Outcome::kMiss);
  cache.fulfill(key, payload_of(3.5));

  const auto hit = cache.lookup_or_join(key);
  ASSERT_EQ(hit.outcome, ResultCache::Outcome::kHit);
  ASSERT_NE(hit.payload, nullptr);
  EXPECT_DOUBLE_EQ(hit.payload->values.at(0), 3.5);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheTest, SecondLookupJoinsInFlight) {
  ResultCache cache;
  const RequestKey key = key_of(1);
  ASSERT_EQ(cache.lookup_or_join(key).outcome, ResultCache::Outcome::kMiss);

  const auto joined = cache.lookup_or_join(key);
  ASSERT_EQ(joined.outcome, ResultCache::Outcome::kJoined);
  EXPECT_EQ(joined.payload, nullptr);
  EXPECT_EQ(cache.stats().inflight_joins, 1u);
  cache.fulfill(key, payload_of(7.0));

  // Fulfilled: the key is no longer in flight, and its answer hits.
  const auto hit = cache.lookup_or_join(key);
  ASSERT_EQ(hit.outcome, ResultCache::Outcome::kHit);
  EXPECT_DOUBLE_EQ(hit.payload->values.at(0), 7.0);
  EXPECT_EQ(cache.stats().inflight_joins, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedOnEntryPressure) {
  CacheConfig config;
  config.max_entries = 2;
  ResultCache cache(config);

  for (std::uint64_t s = 1; s <= 3; ++s) {
    ASSERT_EQ(cache.lookup_or_join(key_of(s)).outcome,
              ResultCache::Outcome::kMiss);
    cache.fulfill(key_of(s), payload_of(static_cast<double>(s)));
  }
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Key 1 was least recently used -> gone; 2 and 3 remain.
  EXPECT_EQ(cache.lookup_or_join(key_of(1)).outcome,
            ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.lookup_or_join(key_of(2)).outcome,
            ResultCache::Outcome::kHit);
  EXPECT_EQ(cache.lookup_or_join(key_of(3)).outcome,
            ResultCache::Outcome::kHit);
}

TEST(ResultCacheTest, HitRefreshesLruPosition) {
  CacheConfig config;
  config.max_entries = 2;
  ResultCache cache(config);
  for (std::uint64_t s = 1; s <= 2; ++s) {
    cache.lookup_or_join(key_of(s));
    cache.fulfill(key_of(s), payload_of(static_cast<double>(s)));
  }
  // Touch 1 so 2 becomes the LRU victim when 3 arrives.
  EXPECT_EQ(cache.lookup_or_join(key_of(1)).outcome,
            ResultCache::Outcome::kHit);
  cache.lookup_or_join(key_of(3));
  cache.fulfill(key_of(3), payload_of(3.0));
  EXPECT_EQ(cache.lookup_or_join(key_of(1)).outcome,
            ResultCache::Outcome::kHit);
  EXPECT_EQ(cache.lookup_or_join(key_of(2)).outcome,
            ResultCache::Outcome::kMiss);
}

TEST(ResultCacheTest, EvictsOnBytePressure) {
  CacheConfig config;
  config.max_entries = 1024;
  config.max_bytes = 1000;
  ResultCache cache(config);

  cache.lookup_or_join(key_of(1));
  cache.fulfill(key_of(1), payload_of(1.0, 600));
  cache.lookup_or_join(key_of(2));
  cache.fulfill(key_of(2), payload_of(2.0, 600));

  // 1200 bytes > 1000: the older entry was evicted.
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_LE(cache.bytes(), 1000u);
  EXPECT_EQ(cache.lookup_or_join(key_of(1)).outcome,
            ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.lookup_or_join(key_of(2)).outcome,
            ResultCache::Outcome::kHit);
}

TEST(ResultCacheTest, ReorderedParamsShareTheCacheLine) {
  // The canonicalization satellite: reordered-but-equal configurations
  // produce the same RequestKey and therefore hit.
  AnalysisRequest first;
  first.store_fingerprint = 5;
  first.family = AnalysisFamily::kPsa;
  first.params = {{"stride", "2"}, {"selection", "all"}};
  AnalysisRequest second = first;
  second.params = {{"selection", "all"}, {"stride", "2"}};

  ResultCache cache;
  ASSERT_EQ(cache.lookup_or_join(request_key(first)).outcome,
            ResultCache::Outcome::kMiss);
  cache.fulfill(request_key(first), payload_of(4.0));
  const auto hit = cache.lookup_or_join(request_key(second));
  ASSERT_EQ(hit.outcome, ResultCache::Outcome::kHit);
  EXPECT_DOUBLE_EQ(hit.payload->values.at(0), 4.0);
}

TEST(ResultCacheTest, DisabledCacheAlwaysMisses) {
  CacheConfig config;
  config.enabled = false;
  ResultCache cache(config);
  const RequestKey key = key_of(1);
  EXPECT_EQ(cache.lookup_or_join(key).outcome, ResultCache::Outcome::kMiss);
  cache.fulfill(key, payload_of(1.0));
  EXPECT_EQ(cache.lookup_or_join(key).outcome, ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

}  // namespace
}  // namespace mdtask::service
