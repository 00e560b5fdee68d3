// Live-path tests of the request reliability layer: deadlines, retry,
// brownout and the chaos harness, plus the live-vs-DES chaos
// determinism contract (same seed -> byte-identical canonical
// RecoveryLog and equal outcome counts on both paths).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "mdtask/fault/recovery.h"
#include "mdtask/service/service.h"
#include "mdtask/service/sim_service.h"
#include "mdtask/service/traffic.h"

namespace mdtask::service {
namespace {

AnalysisRequest make_request(std::uint64_t tenant, std::uint64_t store,
                             AnalysisFamily family = AnalysisFamily::kRmsdSeries,
                             const char* stride = "1") {
  AnalysisRequest request;
  request.tenant = tenant;
  request.tenant_class = TenantClass::kBatch;
  request.family = family;
  request.store_fingerprint = store;
  request.params = {{"stride", stride}};
  request.input_bytes = 4096;
  return request;
}

Result<std::vector<ResultPayload>> echo_executor(const EngineJob& job) {
  std::vector<ResultPayload> payloads;
  for (const AnalysisRequest& request : job.requests) {
    payloads.push_back(ResultPayload{
        {static_cast<double>(request.store_fingerprint)}, 0});
  }
  return payloads;
}

TEST(ServiceReliabilityTest, DeadlineReapsRequestHeldInOpenBatch) {
  ServiceConfig config;
  config.batch.max_batch = 64;
  config.batch.max_delay_s = 3600.0;  // the batch would wait an hour
  config.reliability.deadline.enabled = true;
  config.reliability.deadline.default_s = {0.01, 0.01, 0.01};
  ThreadPool pool(2);
  AnalysisService service(config, pool, echo_executor);

  const auto t0 = std::chrono::steady_clock::now();
  CachedResult result = service.submit(make_request(1, 1)).get();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kDeadlineExceeded);
  // The future resolved at the deadline, not at the batch window: the
  // acceptance bound is deadline + one retry budget, far under a second.
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 2.0);
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // counted separately from sheds
}

TEST(ServiceReliabilityTest, ExpiredRequestNeverReachesTheExecutor) {
  ServiceConfig config;
  config.batch.max_batch = 64;
  config.batch.max_delay_s = 0.2;
  config.reliability.deadline.enabled = true;
  config.reliability.deadline.default_s = {0.01, 0.01, 0.01};
  std::atomic<std::uint64_t> jobs{0};
  ThreadPool pool(2);
  AnalysisService service(
      config, pool,
      [&jobs](const EngineJob& job) -> Result<std::vector<ResultPayload>> {
        jobs.fetch_add(1);
        return echo_executor(job);
      });
  // The request expires (10 ms) long before the batch window (200 ms):
  // the pre-dispatch strip must drop the whole job.
  CachedResult result = service.submit(make_request(1, 1)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kDeadlineExceeded);
  service.drain();
  EXPECT_EQ(jobs.load(), 0u);
}

TEST(ServiceReliabilityTest, RetryRecoversFromTransientExecutorFailure) {
  ServiceConfig config;
  config.batch.enabled = false;
  config.reliability.retry.enabled = true;
  config.reliability.retry.policy.max_attempts = 3;
  config.reliability.retry.policy.backoff_s = 0.001;
  std::atomic<int> calls{0};
  ThreadPool pool(2);
  AnalysisService service(
      config, pool,
      [&calls](const EngineJob& job) -> Result<std::vector<ResultPayload>> {
        if (calls.fetch_add(1) == 0) {
          return Error(ErrorCode::kIoError, "transient store hiccup");
        }
        return echo_executor(job);
      });
  CachedResult result = service.submit(make_request(1, 5)).get();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value()->values.at(0), 5.0);
  service.drain();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(service.stats().retries, 1u);
}

TEST(ServiceReliabilityTest, RetryBudgetExhaustsToTheLastError) {
  ServiceConfig config;
  config.batch.enabled = false;
  config.reliability.retry.enabled = true;
  config.reliability.retry.policy.max_attempts = 3;
  config.reliability.retry.policy.backoff_s = 0.001;
  std::atomic<int> calls{0};
  ThreadPool pool(2);
  AnalysisService service(
      config, pool,
      [&calls](const EngineJob&) -> Result<std::vector<ResultPayload>> {
        calls.fetch_add(1);
        return Error(ErrorCode::kIoError, "store offline");
      });
  CachedResult result = service.submit(make_request(1, 5)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kIoError);
  service.drain();
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(service.stats().retries, 2u);
}

TEST(ServiceReliabilityTest, ChaosFailureSurfacesTypedWhenRetryIsOff) {
  ServiceConfig config;
  config.batch.enabled = false;
  config.chaos.enabled = true;
  config.chaos.fail_rate = 1.0;  // every attempt fails by hash
  ThreadPool pool(2);
  AnalysisService service(config, pool, echo_executor);
  CachedResult result = service.submit(make_request(1, 5)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
  service.drain();
  EXPECT_GE(service.stats().chaos_failures, 1u);
}

TEST(ServiceReliabilityTest, DrainRacesSubmitWhileExecutorFails) {
  ServiceConfig config;
  config.batch.max_delay_s = 0.0005;
  config.cache.enabled = false;
  config.reliability.retry.enabled = true;
  config.reliability.retry.policy.max_attempts = 2;
  config.reliability.retry.policy.backoff_s = 0.0005;
  std::atomic<int> calls{0};
  ThreadPool pool(4);
  AnalysisService service(
      config, pool,
      [&calls](const EngineJob& job) -> Result<std::vector<ResultPayload>> {
        if (calls.fetch_add(1) % 3 == 0) {
          return Error(ErrorCode::kIoError, "intermittent");
        }
        return echo_executor(job);
      });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> resolved{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        AnalysisRequest request =
            make_request(static_cast<std::uint64_t>(t),
                         static_cast<std::uint64_t>(i % 8),
                         static_cast<AnalysisFamily>(i % 3),
                         /*stride=*/"1");
        request.params = {{"stride", std::to_string(i)}};
        const CachedResult result = service.submit(std::move(request)).get();
        // Success, engine failure and sheds are all legal outcomes
        // here; what must hold is that EVERY future resolves while
        // drain() races the submitters.
        if (!result.ok()) {
          const ErrorCode code = result.error().code();
          ASSERT_TRUE(code == ErrorCode::kIoError ||
                      code == ErrorCode::kOverloaded);
        }
        resolved.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    service.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& thread : submitters) thread.join();
  service.drain();
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed + stats.rejected,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(ServiceReliabilityTest, BrownoutShedsBestEffortFirst) {
  ServiceConfig config;
  config.batch.max_batch = 64;
  config.batch.max_delay_s = 3600.0;  // hold work open: backlog persists
  config.reliability.brownout.enabled = true;
  config.reliability.brownout.shed_depth = 1;
  ThreadPool pool(2);
  AnalysisService service(config, pool, echo_executor);

  auto held = service.submit(make_request(1, 1));
  // The dispatcher observes the backlog and escalates; poll until the
  // level is visible (its pass races this thread).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().brownout_level < BrownoutLevel::kShedBestEffort &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.stats().brownout_level, BrownoutLevel::kShedBestEffort);

  AnalysisRequest best_effort = make_request(2, 2);
  best_effort.tenant_class = TenantClass::kBestEffort;
  CachedResult shed = service.submit(std::move(best_effort)).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code(), ErrorCode::kOverloaded);

  // Batch-class traffic still passes admission under level 1.
  auto batch_ok = service.submit(make_request(3, 3));
  service.drain();
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(batch_ok.get().ok());
  EXPECT_EQ(service.stats().brownout_shed, 1u);
}

TEST(ServiceReliabilityTest, BrownoutServesStaleCacheEntries) {
  ServiceConfig config;
  config.batch.enabled = false;
  config.reliability.brownout.enabled = true;
  config.reliability.brownout.shed_depth = 1;
  config.reliability.brownout.shrink_depth = 1;
  config.reliability.brownout.stale_depth = 1;
  ThreadPool pool(2);
  AnalysisService service(
      config, pool,
      [](const EngineJob& job) -> Result<std::vector<ResultPayload>> {
        if (job.store_fingerprint == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return echo_executor(job);
      });

  // Prime the cache against store 1 while the service is healthy.
  ASSERT_TRUE(service.submit(make_request(1, 1)).get().ok());

  // A slow job holds the backlog at 1 so the controller escalates all
  // the way to serve-stale.
  auto held = service.submit(make_request(1, 3, AnalysisFamily::kLeaflet));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().brownout_level < BrownoutLevel::kServeStale &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.stats().brownout_level, BrownoutLevel::kServeStale);

  // Same analysis against a NEW store fingerprint: a brownout miss is
  // answered from the stale store-1 entry, flagged stale.
  CachedResult stale = service.submit(make_request(2, 2)).get();
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value()->stale);
  EXPECT_DOUBLE_EQ(stale.value()->values.at(0), 1.0);
  service.drain();
  EXPECT_TRUE(held.get().ok());
  EXPECT_EQ(service.stats().stale_served, 1u);
}

TEST(ServiceReliabilityTest, InvalidateStoreForcesRecomputation) {
  ServiceConfig config;
  config.batch.enabled = false;
  std::atomic<std::uint64_t> jobs{0};
  ThreadPool pool(2);
  AnalysisService service(
      config, pool,
      [&jobs](const EngineJob& job) -> Result<std::vector<ResultPayload>> {
        jobs.fetch_add(1);
        return echo_executor(job);
      });
  EXPECT_EQ(service.ingest_store("store", 5), 0u);
  ASSERT_TRUE(service.submit(make_request(1, 5)).get().ok());
  ASSERT_TRUE(service.submit(make_request(2, 5)).get().ok());
  EXPECT_EQ(jobs.load(), 1u);  // second was a cache hit
  // Rewriting the store under a new fingerprint evicts the old answer.
  EXPECT_EQ(service.ingest_store("store", 6), 1u);
  ASSERT_TRUE(service.submit(make_request(3, 5)).get().ok());
  EXPECT_EQ(jobs.load(), 2u);  // re-ingested store recomputes
}

// ---------------------------------------------------------------------------
// Chaos determinism: live vs live, and live vs the DES twin

/// The determinism preconditions: mechanisms that depend on wall-clock
/// timing (batch windows, deadlines, brownout) off,
/// retry ON so multi-attempt verdict chains exercise the hash, cache
/// off so both paths dispatch the identical job multiset.
ServiceConfig chaos_determinism_config() {
  ServiceConfig config;
  config.admission.max_global_requests = 1 << 20;
  config.admission.max_tenant_requests = 1 << 20;
  config.batch.enabled = false;
  config.cache.enabled = false;
  config.reliability.retry.enabled = true;
  config.reliability.retry.policy.max_attempts = 3;
  config.reliability.retry.policy.backoff_s = 0.0;
  config.chaos.enabled = true;
  config.chaos.seed = 1234;
  config.chaos.fail_rate = 0.2;
  config.chaos.slow_rate = 0.0;
  config.chaos.hang_rate = 0.0;
  return config;
}

TrafficConfig chaos_traffic() {
  TrafficConfig traffic;
  traffic.seed = 99;
  traffic.duration_s = 5.0;
  traffic.rate_per_s = 40.0;
  traffic.repeat_fraction = 0.0;
  traffic.stores = 8;
  traffic.param_variants = 50;
  return traffic;
}

std::vector<std::string> live_chaos_log(const ServiceConfig& config) {
  fault::RecoveryLog log;
  ThreadPool pool(4);
  AnalysisService service(config, pool, echo_executor);
  service.set_recovery_log(&log);
  std::vector<std::future<CachedResult>> futures;
  for (const TrafficEvent& event : generate_traffic(chaos_traffic())) {
    futures.push_back(service.submit(event.request));
  }
  for (auto& future : futures) (void)future.get();
  service.drain();
  return log.canonical();
}

TEST(ChaosDeterminismTest, LiveRunsAreByteIdenticalPerSeed) {
  const ServiceConfig config = chaos_determinism_config();
  const std::vector<std::string> first = live_chaos_log(config);
  const std::vector<std::string> second = live_chaos_log(config);
  ASSERT_FALSE(first.empty());  // the chaos rates really fired
  EXPECT_EQ(first, second);
}

TEST(ChaosDeterminismTest, LiveAndDesAgreeByteForByte) {
  const ServiceConfig config = chaos_determinism_config();
  const std::vector<std::string> live = live_chaos_log(config);

  fault::RecoveryLog des_log;
  ServiceSimConfig sim;
  sim.traffic = chaos_traffic();
  sim.service = config;
  sim.recovery_log = &des_log;
  (void)simulate_service(sim);
  const std::vector<std::string> des = des_log.canonical();

  ASSERT_FALSE(live.empty());
  EXPECT_EQ(live, des);
}

AnalysisService::Stats live_chaos_stats(const ServiceConfig& config) {
  ThreadPool pool(4);
  AnalysisService service(config, pool, echo_executor);
  std::vector<std::future<CachedResult>> futures;
  for (const TrafficEvent& event : generate_traffic(chaos_traffic())) {
    futures.push_back(service.submit(event.request));
  }
  for (auto& future : futures) (void)future.get();
  service.drain();
  return service.stats();
}

TEST(ChaosDeterminismTest, LiveAndDesAgreeOnOutcomeCounts) {
  const ServiceConfig config = chaos_determinism_config();
  const AnalysisService::Stats live = live_chaos_stats(config);

  ServiceSimConfig sim;
  sim.traffic = chaos_traffic();
  sim.service = config;
  const ServiceSimReport des = simulate_service(sim);

  // Both drivers run one pipeline: the same requests complete and fail
  // per class, through the same jobs, retries and chaos failures.
  for (std::size_t c = 0; c < kTenantClasses; ++c) {
    const char* name = to_string(static_cast<TenantClass>(c));
    EXPECT_EQ(live.classes[c].completed, des.classes[c].completed) << name;
    EXPECT_EQ(live.classes[c].failed, des.classes[c].failed) << name;
  }
  EXPECT_GT(des.chaos_failures, 0u);
  EXPECT_GT(des.retries, 0u);
  EXPECT_EQ(live.engine_jobs, des.engine_jobs);
  EXPECT_EQ(live.retries, des.retries);
  EXPECT_EQ(live.chaos_failures, des.chaos_failures);
}

}  // namespace
}  // namespace mdtask::service
