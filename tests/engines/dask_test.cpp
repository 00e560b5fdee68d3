#include "mdtask/engines/dask/dask.h"

#include <gtest/gtest.h>

#include <atomic>

namespace mdtask::dask {
namespace {

TEST(DaskTest, SubmitNoDeps) {
  DaskClient client;
  auto f = client.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(DaskTest, DependencyChainExecutesInOrder) {
  DaskClient client;
  auto a = client.submit([] { return 10; });
  auto b = client.submit([](const int& x) { return x + 5; }, a);
  auto c = client.submit([](const int& x) { return x * 2; }, b);
  EXPECT_EQ(c.get(), 30);
}

TEST(DaskTest, DiamondGraph) {
  DaskClient client;
  auto root = client.submit([] { return 3; });
  auto left = client.submit([](const int& x) { return x + 1; }, root);
  auto right = client.submit([](const int& x) { return x * 10; }, root);
  auto join = client.submit(
      [](const int& l, const int& r) { return l + r; }, left, right);
  EXPECT_EQ(join.get(), 4 + 30);
}

TEST(DaskTest, ManyIndependentTasks) {
  DaskClient client(DaskConfig{.workers = 8});
  std::vector<Future<int>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(client.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(client.metrics().tasks_executed.load(), 500u);
}

TEST(DaskTest, ErrorPropagatesToFuture) {
  DaskClient client;
  auto f = client.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(DaskTest, ErrorPropagatesThroughDependents) {
  DaskClient client;
  auto bad = client.submit([]() -> int { throw std::logic_error("bad"); });
  auto downstream =
      client.submit([](const int& x) { return x + 1; }, bad);
  EXPECT_THROW(downstream.get(), std::logic_error);
}

TEST(DaskTest, DependenciesAlreadyFinishedStillWire) {
  DaskClient client;
  auto a = client.submit([] { return 1; });
  EXPECT_EQ(a.get(), 1);  // a definitely finished
  auto b = client.submit([](const int& x) { return x + 1; }, a);
  EXPECT_EQ(b.get(), 2);
}

TEST(DaskTest, WaitAllDrainsGraph) {
  DaskClient client;
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    client.submit([&done] {
      done.fetch_add(1);
      return 0;
    });
  }
  client.wait_all();
  EXPECT_EQ(done.load(), 100);
}

TEST(DaskTest, NoStageBarrier_DependentStartsBeforeSiblingFinishes) {
  // Two independent chains; a slow task in chain B must not delay the
  // downstream of chain A (contrast with Spark stage semantics).
  DaskClient client(DaskConfig{.workers = 2});
  std::atomic<bool> slow_done{false};
  auto slow = client.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    slow_done.store(true);
    return 0;
  });
  auto fast = client.submit([] { return 1; });
  auto fast_child = client.submit(
      [&](const int& x) { return std::make_pair(x, slow_done.load()); },
      fast);
  const auto [value, slow_was_done] = fast_child.get();
  EXPECT_EQ(value, 1);
  EXPECT_FALSE(slow_was_done);
  (void)slow.get();
}

TEST(DaskTest, MemoryGuardRetriesThenSucceeds) {
  DaskClient client(
      DaskConfig{.workers = 2, .task_memory_limit = 100,
                 .allowed_failures = 3});
  std::atomic<int> attempts{0};
  auto f = client.submit([&] {
    // First two attempts exceed the limit; third fits.
    if (attempts.fetch_add(1) < 2) client.reserve_memory(1000);
    return 7;
  });
  EXPECT_EQ(f.get(), 7);
  EXPECT_EQ(client.worker_restarts(), 2u);
}

TEST(DaskTest, MemoryGuardExhaustsRetriesAndFails) {
  DaskClient client(
      DaskConfig{.workers = 2, .task_memory_limit = 100,
                 .allowed_failures = 2});
  auto f = client.submit([&] {
    client.reserve_memory(1000);
    return 7;
  });
  EXPECT_THROW(f.get(), engines::TaskMemoryExceeded);
  EXPECT_EQ(client.worker_restarts(), 3u);  // initial + 2 retries
}

TEST(DaskSpeculationTest, SetValueIsFirstCompletionWins) {
  // A future's state publishes once: only the first set_value lands,
  // a later one is dropped.
  detail::SharedState<int> state;
  EXPECT_TRUE(state.set_value(7));
  EXPECT_FALSE(state.set_value(9));
  EXPECT_EQ(state.value(), 7);
}

}  // namespace
}  // namespace mdtask::dask
