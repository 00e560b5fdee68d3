#include "mdtask/service/reliability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mdtask/service/result_cache.h"

namespace mdtask::service {
namespace {

AnalysisRequest make_request(std::uint64_t store,
                             AnalysisFamily family = AnalysisFamily::kRmsdSeries,
                             const char* stride = "1") {
  AnalysisRequest request;
  request.tenant = 1;
  request.tenant_class = TenantClass::kBatch;
  request.family = family;
  request.store_fingerprint = store;
  request.params = {{"stride", stride}};
  request.input_bytes = 4096;
  return request;
}

// ---------------------------------------------------------------------------
// Deadlines

TEST(DeadlineTest, DisabledBudgetIsZero) {
  DeadlineConfig config;  // enabled = false
  EXPECT_DOUBLE_EQ(deadline_budget_s(config, make_request(1)), 0.0);
}

TEST(DeadlineTest, RequestDeadlineOverridesClassDefault) {
  DeadlineConfig config;
  config.enabled = true;
  AnalysisRequest request = make_request(1);
  request.tenant_class = TenantClass::kInteractive;
  EXPECT_DOUBLE_EQ(deadline_budget_s(config, request),
                   config.for_class(TenantClass::kInteractive));
  request.deadline_s = 0.123;
  EXPECT_DOUBLE_EQ(deadline_budget_s(config, request), 0.123);
}

TEST(DeadlineTest, BatcherCarriesTightestMemberDeadline) {
  BatchConfig config;
  config.max_batch = 2;
  config.max_delay_s = 60.0;
  Batcher batcher(config);
  AnalysisRequest a = make_request(7, AnalysisFamily::kRmsdSeries, "1");
  AnalysisRequest b = make_request(7, AnalysisFamily::kRmsdSeries, "2");
  a.deadline_s = 5.0;
  b.deadline_s = 2.0;
  EXPECT_FALSE(batcher.add(std::move(a), 0.0).has_value());
  const auto job = batcher.add(std::move(b), 0.0);
  ASSERT_TRUE(job.has_value());
  EXPECT_DOUBLE_EQ(job->deadline_s, 2.0);
}

TEST(DeadlineTest, UnbatchedRequestKeepsItsOwnDeadline) {
  BatchConfig config;
  config.enabled = false;
  Batcher batcher(config);
  AnalysisRequest a = make_request(7);
  a.deadline_s = 3.5;
  const auto job = batcher.add(std::move(a), 0.0);
  ASSERT_TRUE(job.has_value());
  EXPECT_DOUBLE_EQ(job->deadline_s, 3.5);
}

// ---------------------------------------------------------------------------
// Graceful degradation

BrownoutConfig small_brownout() {
  BrownoutConfig config;
  config.enabled = true;
  config.shed_depth = 4;
  config.shrink_depth = 8;
  config.stale_depth = 16;
  config.exit_fraction = 0.5;
  return config;
}

TEST(BrownoutTest, LevelsFollowQueueDepth) {
  DegradationController controller(small_brownout());
  EXPECT_EQ(controller.update(3), BrownoutLevel::kNormal);
  EXPECT_EQ(controller.update(4), BrownoutLevel::kShedBestEffort);
  EXPECT_EQ(controller.update(8), BrownoutLevel::kShrinkBatch);
  EXPECT_EQ(controller.update(16), BrownoutLevel::kServeStale);
  EXPECT_EQ(controller.stats().escalations, 3u);
}

TEST(BrownoutTest, ExitIsHystereticAndOneLevelPerStep) {
  DegradationController controller(small_brownout());
  controller.update(16);
  ASSERT_EQ(controller.level(), BrownoutLevel::kServeStale);
  // Depth just below the entry threshold is NOT enough to de-escalate.
  EXPECT_EQ(controller.update(15), BrownoutLevel::kServeStale);
  EXPECT_EQ(controller.update(9), BrownoutLevel::kServeStale);
  // At exit_fraction x stale_depth = 8 the controller steps down ONE
  // level per observation, never straight to normal.
  EXPECT_EQ(controller.update(0), BrownoutLevel::kShrinkBatch);
  EXPECT_EQ(controller.update(0), BrownoutLevel::kShedBestEffort);
  EXPECT_EQ(controller.update(0), BrownoutLevel::kNormal);
  EXPECT_EQ(controller.stats().recoveries, 3u);
}

TEST(BrownoutTest, DisabledControllerStaysNormal) {
  DegradationController controller;  // enabled = false
  EXPECT_EQ(controller.update(1000), BrownoutLevel::kNormal);
}

// ---------------------------------------------------------------------------
// Chaos

EngineJob make_job(std::vector<AnalysisRequest> requests,
                   std::uint64_t job_id = 1) {
  EngineJob job;
  job.job_id = job_id;
  if (!requests.empty()) {
    job.store_fingerprint = requests.front().store_fingerprint;
    job.family = requests.front().family;
  }
  job.requests = std::move(requests);
  return job;
}

TEST(ChaosTest, JobIdIsOrderIndependentAndContentAddressed) {
  AnalysisRequest a = make_request(7, AnalysisFamily::kRmsdSeries, "1");
  AnalysisRequest b = make_request(7, AnalysisFamily::kRmsdSeries, "2");
  const std::uint64_t ab = chaos_job_id(make_job({a, b}, /*job_id=*/1));
  const std::uint64_t ba = chaos_job_id(make_job({b, a}, /*job_id=*/99));
  EXPECT_EQ(ab, ba);  // live ticket order and job numbering never enter
  const std::uint64_t aa = chaos_job_id(make_job({a}, /*job_id=*/1));
  EXPECT_NE(ab, aa);
  // Duplicate keys share a batch when the cache is off; they must not
  // cancel out of the identity, so different duplicated keys differ.
  const AnalysisRequest c = make_request(9, AnalysisFamily::kPsa, "3");
  EXPECT_NE(chaos_job_id(make_job({a, a})), chaos_job_id(make_job({b, b})));
  EXPECT_NE(chaos_job_id(make_job({a, a, c})),
            chaos_job_id(make_job({b, b, c})));
  EXPECT_NE(chaos_job_id(make_job({a, a})), chaos_job_id(make_job({a})));
  EXPECT_EQ(chaos_job_id(make_job({a, c, a})),
            chaos_job_id(make_job({c, a, a})));
}

TEST(ChaosTest, DisabledInjectorNeverFires) {
  ChaosInjector injector(ChaosConfig{});
  for (std::uint64_t id = 0; id < 64; ++id) {
    const ChaosOutcome outcome = injector.decide(id, 0);
    EXPECT_FALSE(outcome.fired());
    EXPECT_DOUBLE_EQ(outcome.delay_s, 0.0);
  }
}

TEST(ChaosTest, VerdictsAreDeterministicPerSeed) {
  ChaosConfig config;
  config.enabled = true;
  config.seed = 7;
  config.fail_rate = 0.2;
  config.slow_rate = 0.3;
  config.hang_rate = 0.1;
  ChaosInjector first(config);
  ChaosInjector second(config);
  bool any_fired = false;
  for (std::uint64_t id = 0; id < 256; ++id) {
    for (int attempt : {0, 1, 2}) {
      const ChaosOutcome a = first.decide(id, attempt);
      const ChaosOutcome b = second.decide(id, attempt);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
      any_fired = any_fired || a.fired();
    }
  }
  EXPECT_TRUE(any_fired);
  // A different seed reshuffles the verdicts.
  config.seed = 8;
  ChaosInjector other(config);
  bool any_difference = false;
  for (std::uint64_t id = 0; id < 256 && !any_difference; ++id) {
    any_difference = other.decide(id, 0).kind != first.decide(id, 0).kind;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChaosTest, SeverityMasksAndDelaysMatchConfig) {
  ChaosConfig config;
  config.enabled = true;
  config.fail_rate = 1.0;
  config.slow_rate = 1.0;
  config.hang_rate = 1.0;
  ChaosInjector all(config);
  // fail masks hang masks slow at certainty rates.
  const ChaosOutcome fail = all.decide(42, 0);
  EXPECT_TRUE(fail.fails());
  EXPECT_DOUBLE_EQ(fail.delay_s, 0.0);

  config.fail_rate = 0.0;
  ChaosInjector hang(config);
  const ChaosOutcome stalled = hang.decide(42, 0);
  EXPECT_FALSE(stalled.fails());
  EXPECT_TRUE(stalled.fired());
  EXPECT_DOUBLE_EQ(stalled.delay_s, config.hang_s);

  config.hang_rate = 0.0;
  ChaosInjector slow(config);
  const ChaosOutcome dragged = slow.decide(42, 0);
  EXPECT_FALSE(dragged.fails());
  EXPECT_TRUE(dragged.fired());
  EXPECT_DOUBLE_EQ(dragged.delay_s, config.slow_s);
}

// ---------------------------------------------------------------------------
// Cache satellites: invalidation and stale lookup

std::shared_ptr<const ResultPayload> payload_of(double value) {
  return std::make_shared<const ResultPayload>(
      ResultPayload{{value}, 4096});
}

TEST(CacheReliabilityTest, InvalidateStoreEvictsOnlyThatStore) {
  ResultCache cache{CacheConfig{}};
  const RequestKey k1 = request_key(make_request(1));
  const RequestKey k2 =
      request_key(make_request(1, AnalysisFamily::kLeaflet));
  const RequestKey other = request_key(make_request(2));
  for (const RequestKey& key : {k1, k2, other}) {
    ASSERT_EQ(cache.lookup_or_join(key).outcome,
              ResultCache::Outcome::kMiss);
    cache.fulfill(key, CachedResult(payload_of(1.0)));
  }
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.invalidate_store(1), 2u);
  EXPECT_EQ(cache.entries(), 1u);
  // The re-ingested store misses; the untouched store still hits.
  EXPECT_EQ(cache.lookup_or_join(k1).outcome, ResultCache::Outcome::kMiss);
  EXPECT_EQ(cache.lookup_or_join(other).outcome,
            ResultCache::Outcome::kHit);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(CacheReliabilityTest, LookupStaleFindsSameAnalysisOtherStore) {
  ResultCache cache{CacheConfig{}};
  const RequestKey old_key = request_key(make_request(1));
  ASSERT_EQ(cache.lookup_or_join(old_key).outcome,
            ResultCache::Outcome::kMiss);
  cache.fulfill(old_key, CachedResult(payload_of(7.0)));

  // Same analysis (family + params) against a NEW store snapshot.
  const RequestKey fresh_key = request_key(make_request(2));
  const auto stale = cache.lookup_stale(fresh_key);
  ASSERT_NE(stale, nullptr);
  EXPECT_TRUE(stale->stale);
  EXPECT_DOUBLE_EQ(stale->values.at(0), 7.0);
  EXPECT_EQ(cache.stats().stale_serves, 1u);

  // A different analysis has no stale stand-in.
  const RequestKey other_family =
      request_key(make_request(3, AnalysisFamily::kLeaflet));
  EXPECT_EQ(cache.lookup_stale(other_family), nullptr);
  // The original entry was served by copy: it is NOT flagged stale.
  EXPECT_EQ(cache.lookup_or_join(old_key).outcome,
            ResultCache::Outcome::kHit);
}

}  // namespace
}  // namespace mdtask::service
