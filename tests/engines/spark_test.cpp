#include "mdtask/engines/spark/spark.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace mdtask::spark {
namespace {

std::vector<int> iota_vec(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(SparkTest, ParallelizeCollectRoundTrip) {
  SparkContext sc;
  auto rdd = sc.parallelize(iota_vec(100), 7);
  EXPECT_EQ(rdd.partitions(), 7u);
  EXPECT_EQ(rdd.collect(), iota_vec(100));
}

TEST(SparkTest, EmptyDataStillHasPartitions) {
  SparkContext sc;
  auto rdd = sc.parallelize(std::vector<int>{}, 4);
  EXPECT_TRUE(rdd.collect().empty());
  EXPECT_EQ(rdd.collect().size(), 0u);
}

TEST(SparkTest, MapTransformsEveryElement) {
  SparkContext sc;
  auto out = sc.parallelize(iota_vec(50), 5)
                 .map([](const int& x) { return x * 2; })
                 .collect();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], 2 * i);
  }
}

TEST(SparkTest, MapChangesType) {
  SparkContext sc;
  auto out = sc.parallelize(std::vector<int>{1, 22, 333}, 2)
                 .map([](const int& x) { return std::to_string(x); })
                 .collect();
  EXPECT_EQ(out, (std::vector<std::string>{"1", "22", "333"}));
}

TEST(SparkTest, MapPartitionsSeesWholePartition) {
  SparkContext sc;
  auto sizes = sc.parallelize(iota_vec(10), 3)
                   .map_partitions([](TaskContext&, std::vector<int>& xs) {
                     return std::vector<std::size_t>{xs.size()};
                   })
                   .collect();
  EXPECT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2], 10u);
}

TEST(SparkTest, ReduceSumsAllElements) {
  SparkContext sc;
  const int total = sc.parallelize(iota_vec(101), 8)
                        .reduce([](int a, int b) { return a + b; });
  EXPECT_EQ(total, 100 * 101 / 2);
}

TEST(SparkTest, ChainedNarrowTransformationsFuseIntoOneStage) {
  SparkContext sc;
  auto rdd = sc.parallelize(iota_vec(100), 4)
                 .map([](const int& x) { return x + 1; })
                 .map([](const int& x) { return x % 3 == 0 ? x : 0; })
                 .map([](const int& x) { return x * x; });
  sc.metrics().reset();
  rdd.collect();
  EXPECT_EQ(sc.metrics().stages_executed.load(), 1u);
  EXPECT_EQ(sc.metrics().tasks_executed.load(), 4u);
}

TEST(SparkTest, ReduceByKeyAggregates) {
  SparkContext sc;
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 60; ++i) data.emplace_back(i % 3, 1);
  auto counts = reduce_by_key(
                    sc.parallelize(std::move(data), 6),
                    [](int a, int b) { return a + b; }, 4)
                    .collect();
  ASSERT_EQ(counts.size(), 3u);
  for (auto [k, v] : counts) EXPECT_EQ(v, 20) << "key " << k;
}

TEST(SparkTest, ReduceByKeyCutsStageBoundary) {
  SparkContext sc;
  std::vector<std::pair<int, int>> data = {{0, 1}, {1, 2}, {0, 3}};
  auto rdd = reduce_by_key(sc.parallelize(std::move(data), 2),
                           [](int a, int b) { return a + b; }, 2);
  sc.metrics().reset();
  rdd.collect();
  EXPECT_EQ(sc.metrics().stages_executed.load(), 2u);  // map + reduce
  EXPECT_GT(sc.metrics().shuffle_records.load(), 0u);
  EXPECT_GT(sc.metrics().shuffle_bytes.load(), 0u);
}

TEST(SparkTest, CacheAvoidsRecomputation) {
  SparkContext sc;
  std::atomic<int> evaluations{0};
  auto rdd = sc.parallelize(iota_vec(10), 2).map([&](const int& x) {
    evaluations.fetch_add(1);
    return x;
  });
  rdd.cache();
  rdd.collect();
  const int after_first = evaluations.load();
  rdd.collect();
  EXPECT_EQ(evaluations.load(), after_first);  // second action hits cache
  EXPECT_EQ(after_first, 10);
}

TEST(SparkTest, WithoutCacheRecomputes) {
  SparkContext sc;
  std::atomic<int> evaluations{0};
  auto rdd = sc.parallelize(iota_vec(10), 2).map([&](const int& x) {
    evaluations.fetch_add(1);
    return x;
  });
  rdd.collect();
  rdd.collect();
  EXPECT_EQ(evaluations.load(), 20);
}

TEST(SparkTest, BroadcastValueVisibleInTasks) {
  SparkContext sc(SparkConfig{.executor_threads = 3});
  auto lookup = sc.broadcast(std::vector<int>{100, 200, 300},
                             3 * sizeof(int));
  auto out = sc.parallelize(std::vector<std::size_t>{0, 1, 2}, 3)
                 .map([lookup](const std::size_t& i) { return (*lookup)[i]; })
                 .collect();
  EXPECT_EQ(out, (std::vector<int>{100, 200, 300}));
  EXPECT_EQ(sc.metrics().broadcast_bytes.load(), 3u * sizeof(int) * 3u);
}

TEST(SparkTest, TaskMemoryLimitEnforced) {
  SparkContext sc(SparkConfig{.executor_threads = 2,
                              .task_memory_limit = 1024});
  auto rdd = sc.parallelize(iota_vec(4), 2)
                 .map_partitions([](TaskContext& tc, std::vector<int>& xs) {
                   tc.reserve_memory(1 << 20);  // 1 MiB > 1 KiB limit
                   return xs;
                 });
  EXPECT_THROW(rdd.collect(), engines::TaskMemoryExceeded);
}

TEST(SparkTest, TaskMemoryUnlimitedByDefault) {
  SparkContext sc;
  auto rdd = sc.parallelize(iota_vec(4), 2)
                 .map_partitions([](TaskContext& tc, std::vector<int>& xs) {
                   tc.reserve_memory(1ull << 40);
                   return xs;
                 });
  EXPECT_EQ(rdd.collect().size(), 4u);
}

TEST(SparkTest, TwoChainedShufflesRunThreeStages) {
  SparkContext sc;
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 40; ++i) data.emplace_back(i % 4, i);
  auto first = reduce_by_key(sc.parallelize(std::move(data), 4),
                             [](int a, int b) { return a + b; }, 4);
  auto rekeyed = first.map([](const std::pair<int, int>& kv) {
    return std::make_pair(kv.first % 2, kv.second);
  });
  auto second =
      reduce_by_key(rekeyed, [](int a, int b) { return a + b; }, 2);
  sc.metrics().reset();
  auto out = second.collect();
  EXPECT_EQ(sc.metrics().stages_executed.load(), 3u);
  int total = 0;
  for (auto [k, v] : out) total += v;
  EXPECT_EQ(total, 39 * 40 / 2);
}

struct Blob {
  std::vector<int> values;
  std::size_t byte_size() const noexcept {
    return values.size() * sizeof(int);
  }
};

TEST(SparkTest, ShuffleCountsByteSizeOrSizeof) {
  SparkContext sc;
  // Nine one-blob partitions: tree_reduce shuffles the nine folded blobs
  // into three buckets (scale 3), so every payload moves once.
  std::vector<Blob> blobs = {{{1, 2, 3}}, {{4}}, {{}}, {{5, 6}}, {{7}},
                             {{8, 9}}, {{}}, {{10}}, {{11, 12, 13}}};
  sc.metrics().reset();
  const Blob all = sc.parallelize(blobs, 9).tree_reduce(
      [](Blob a, const Blob& b) {
        a.values.insert(a.values.end(), b.values.begin(), b.values.end());
        return a;
      });
  EXPECT_EQ(all.values.size(), 13u);
  EXPECT_EQ(sc.metrics().shuffle_records.load(), 9u);
  EXPECT_EQ(sc.metrics().shuffle_bytes.load(), 13 * sizeof(int));

  std::vector<std::pair<int, Blob>> keyed = {{0, {{1, 2}}}, {1, {{3}}}};
  auto merged = reduce_by_key(
      sc.parallelize(std::move(keyed), 2),
      [](Blob a, const Blob& b) {
        a.values.insert(a.values.end(), b.values.begin(), b.values.end());
        return a;
      },
      2);
  sc.metrics().reset();
  merged.collect();
  // Each record: the pair's bytes with the payload in the value's place.
  const std::size_t header = sizeof(std::pair<int, Blob>) - sizeof(Blob);
  EXPECT_EQ(sc.metrics().shuffle_bytes.load(),
            2 * header + 3 * sizeof(int));

  // Plain records count sizeof, padding included.
  std::vector<std::pair<int, double>> plain = {{0, 1.0}, {1, 2.0}, {0, 3.0}};
  auto summed = reduce_by_key(sc.parallelize(std::move(plain), 2),
                              [](double a, double b) { return a + b; }, 2);
  sc.metrics().reset();
  summed.collect();
  EXPECT_EQ(sc.metrics().shuffle_bytes.load(),
            3 * sizeof(std::pair<int, double>));
}

// ---------------------------------------------------------- tree_reduce --

std::vector<std::string> tokens(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back(std::to_string(i) + ";");
  return out;
}

std::string concat(std::string a, const std::string& b) {
  a += b;
  return a;
}

/// The left fold of `xs` under concatenation, in order.
std::string left_fold(const std::vector<std::string>& xs) {
  std::string out;
  for (const auto& x : xs) out += x;
  return out;
}

TEST(SparkTreeReduceTest, EqualsLeftFoldUnderAnOrderSensitiveOp) {
  // Concatenation is associative but not commutative: any reordering of
  // partitions or values would show in the result.
  for (std::size_t partitions : {1u, 2u, 7u, 55u, 64u, 300u}) {
    const auto xs = tokens(static_cast<int>(3 * partitions + 1));
    SparkContext sc;
    EXPECT_EQ(sc.parallelize(xs, partitions).tree_reduce(concat),
              left_fold(xs))
        << partitions << " partitions";
  }
}

TEST(SparkTreeReduceTest, SkipsEmptyPartitions) {
  const auto xs = tokens(165);
  std::vector<std::string> kept;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if ((i / 3) % 3 != 1) kept.push_back(xs[i]);  // 3 per partition
  }
  SparkContext sc;
  auto holes = sc.parallelize(xs, 55).map_partitions(
      [](TaskContext& tc, std::vector<std::string>& mine) {
        return tc.partition() % 3 == 1 ? std::vector<std::string>{} : mine;
      });
  EXPECT_EQ(holes.tree_reduce(concat), left_fold(kept));
}

TEST(SparkTreeReduceTest, EmptyRddReturnsDefault) {
  SparkContext sc;
  EXPECT_EQ(sc.parallelize(std::vector<std::string>{}, 55)
                .tree_reduce(concat),
            std::string{});
  EXPECT_EQ(sc.parallelize(std::vector<int>{}, 1)
                .tree_reduce([](int a, int b) { return a + b; }),
            0);
}

TEST(SparkTreeReduceTest, StagesFollowTreeReduceShape) {
  // 55 partitions (scale 8) add one 6-bucket level and 300 (scale 18) one
  // 16-bucket level; 2 partitions (scale 2) go straight to the driver.
  struct Shape {
    std::size_t partitions;
    std::uint64_t stages;
    std::uint64_t tasks;
    std::uint64_t shuffled;  ///< values sent through the shuffle level
  };
  for (const Shape& s : {Shape{55, 2, 61, 55}, Shape{300, 2, 316, 300},
                         Shape{2, 1, 2, 0}}) {
    SparkContext sc;
    auto rdd = sc.parallelize(tokens(static_cast<int>(s.partitions)),
                              s.partitions);
    rdd.tree_reduce(concat);
    EXPECT_EQ(sc.metrics().stages_executed.load(), s.stages)
        << s.partitions << " partitions";
    EXPECT_EQ(sc.metrics().tasks_executed.load(), s.tasks)
        << s.partitions << " partitions";
    // Only the level moves values through a shuffle; the driver fold
    // does not count.
    EXPECT_EQ(sc.metrics().shuffle_records.load(), s.shuffled)
        << s.partitions << " partitions";
  }
}

}  // namespace
}  // namespace mdtask::spark
