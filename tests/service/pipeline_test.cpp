// ServicePipeline's in-flight dedup: requests that share a key with a
// job already routed join it instead of running again, and that job's
// one result resolves the owner and every joiner. An error resolves
// them all with the error and leaves the key uncached.
#include "mdtask/service/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace mdtask::service {
namespace {

AnalysisRequest request_with_id(std::uint64_t id) {
  AnalysisRequest request;
  request.id = id;
  request.tenant = id;
  request.family = AnalysisFamily::kPsa;
  request.store_fingerprint = 42;
  request.params = {{"metric", "hausdorff"}};
  request.input_bytes = 1024;
  return request;
}

ServiceConfig unbatched() {
  ServiceConfig config;
  config.batch.enabled = false;  // routing the owner closes its job
  return config;
}

/// Admits request `id` and routes it; returns the route taken.
Routed arrive_and_route(ServicePipeline& pipeline, std::uint64_t id,
                        std::vector<Resolution>* resolved) {
  EXPECT_TRUE(pipeline.arrive(request_with_id(id), 0.0).status.ok());
  return pipeline.route_next(0.0, resolved).value();
}

/// Routes an owner (id 1) and two joiners (ids 2, 3) of one key and
/// returns the owner's dispatched job.
DispatchedJob owner_and_two_joiners(ServicePipeline& pipeline) {
  std::vector<Resolution> resolved;
  Routed owner = arrive_and_route(pipeline, 1, &resolved);
  EXPECT_EQ(owner.route, Route::kBatched);
  for (std::uint64_t id = 2; id <= 3; ++id) {
    EXPECT_EQ(arrive_and_route(pipeline, id, &resolved).route,
              Route::kJoined);
  }
  EXPECT_TRUE(resolved.empty());
  return pipeline.dispatch(std::move(owner.job).value(), 0.0, &resolved)
      .value();
}

std::vector<std::uint64_t> ids_of(const std::vector<Resolution>& resolved) {
  std::vector<std::uint64_t> ids;
  for (const Resolution& r : resolved) ids.push_back(r.request.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ServicePipelineTest, JoinersResolveWithTheOwnersPayload) {
  ServicePipeline pipeline(unbatched());
  const DispatchedJob job = owner_and_two_joiners(pipeline);
  EXPECT_EQ(job.job.requests.size(), 1u);

  std::vector<Resolution> resolved;
  pipeline.complete(job, std::vector<ResultPayload>{ResultPayload{{2.5}}},
                    &resolved);
  EXPECT_EQ(ids_of(resolved), (std::vector<std::uint64_t>{1, 2, 3}));
  for (const Resolution& r : resolved) {
    EXPECT_EQ(r.kind, Resolution::Kind::kCompleted);
    ASSERT_TRUE(r.result.ok());
    EXPECT_DOUBLE_EQ(r.result.value()->values.at(0), 2.5);
  }
  EXPECT_EQ(pipeline.outstanding(), 0u);
  EXPECT_EQ(pipeline.counters().total(&ClassCounters::dedup_joins), 2u);
  EXPECT_EQ(pipeline.counters().engine_jobs, 1u);

  // The answer is cached: the next request of the key is a hit.
  resolved.clear();
  EXPECT_EQ(arrive_and_route(pipeline, 4, &resolved).route, Route::kHit);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_DOUBLE_EQ(resolved[0].result.value()->values.at(0), 2.5);
}

TEST(ServicePipelineTest, FailedOwnerFailsEveryJoinerWithoutPoisoning) {
  ServicePipeline pipeline(unbatched());
  const DispatchedJob job = owner_and_two_joiners(pipeline);

  std::vector<Resolution> resolved;
  pipeline.complete(job, Error(ErrorCode::kIoError, "store unreadable"),
                    &resolved);
  EXPECT_EQ(ids_of(resolved), (std::vector<std::uint64_t>{1, 2, 3}));
  for (const Resolution& r : resolved) {
    EXPECT_EQ(r.kind, Resolution::Kind::kFailed);
    ASSERT_FALSE(r.result.ok());
    EXPECT_EQ(r.result.error().code(), ErrorCode::kIoError);
  }
  EXPECT_EQ(pipeline.cache().entries(), 0u);

  // Nothing was cached: the next request of the key is a fresh miss
  // that runs, and a hit follows its answer.
  resolved.clear();
  Routed retry = arrive_and_route(pipeline, 4, &resolved);
  ASSERT_EQ(retry.route, Route::kBatched);
  const DispatchedJob rerun =
      pipeline.dispatch(std::move(retry.job).value(), 0.0, &resolved).value();
  pipeline.complete(rerun, std::vector<ResultPayload>{ResultPayload{{1.0}}},
                    &resolved);
  EXPECT_EQ(ids_of(resolved), (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(arrive_and_route(pipeline, 5, &resolved).route, Route::kHit);
  EXPECT_EQ(pipeline.cache().stats().insertions, 1u);
}

}  // namespace
}  // namespace mdtask::service
