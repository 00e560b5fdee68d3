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
  EXPECT_EQ(rdd.count(), 0u);
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

TEST(SparkTest, FilterKeepsMatching) {
  SparkContext sc;
  auto out = sc.parallelize(iota_vec(20), 3)
                 .filter([](const int& x) { return x % 2 == 0; })
                 .collect();
  EXPECT_EQ(out.size(), 10u);
  for (int x : out) EXPECT_EQ(x % 2, 0);
}

TEST(SparkTest, FlatMapExpands) {
  SparkContext sc;
  auto out = sc.parallelize(std::vector<int>{1, 2, 3}, 2)
                 .flat_map([](const int& x) {
                   return std::vector<int>(static_cast<std::size_t>(x), x);
                 })
                 .collect();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 2, 3, 3, 3}));
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
                 .filter([](const int& x) { return x % 3 == 0; })
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

TEST(SparkTest, GroupByKeyCollectsAllValues) {
  SparkContext sc;
  std::vector<std::pair<int, int>> data = {{1, 10}, {2, 20}, {1, 30}};
  auto grouped = group_by_key(sc.parallelize(std::move(data), 2), 2)
                     .collect();
  ASSERT_EQ(grouped.size(), 2u);
  for (auto& [k, vs] : grouped) {
    if (k == 1) {
      std::sort(vs.begin(), vs.end());
      EXPECT_EQ(vs, (std::vector<int>{10, 30}));
    } else {
      EXPECT_EQ(vs, (std::vector<int>{20}));
    }
  }
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

TEST(SparkTest, CountMatchesCollectSize) {
  SparkContext sc;
  auto rdd = sc.parallelize(iota_vec(37), 5)
                 .filter([](const int& x) { return x > 10; });
  EXPECT_EQ(rdd.count(), 26u);
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

TEST(SparkTest, UnionConcatenatesLazily) {
  SparkContext sc;
  auto a = sc.parallelize(std::vector<int>{1, 2}, 2);
  auto b = sc.parallelize(std::vector<int>{3, 4, 5}, 3);
  auto u = union_rdd(a, b);
  EXPECT_EQ(u.partitions(), 5u);
  EXPECT_EQ(u.collect(), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SparkTest, UnionComposesWithTransformations) {
  SparkContext sc;
  auto a = sc.parallelize(std::vector<int>{1, 2}, 1);
  auto b = sc.parallelize(std::vector<int>{3}, 1);
  auto out = union_rdd(a, b)
                 .map([](const int& x) { return x * x; })
                 .collect();
  EXPECT_EQ(out, (std::vector<int>{1, 4, 9}));
}

TEST(SparkTest, DistinctRemovesDuplicates) {
  SparkContext sc;
  auto out = distinct(
                 sc.parallelize(std::vector<int>{3, 1, 3, 2, 1, 3}, 3), 2)
                 .collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(SparkTest, SampleIsDeterministicAndProportional) {
  SparkContext sc;
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = sc.parallelize(data, 8);
  const auto once = sample_rdd(rdd, 0.3, 42).collect();
  const auto again = sample_rdd(rdd, 0.3, 42).collect();
  EXPECT_EQ(once, again);  // same seed, same sample
  EXPECT_GT(once.size(), 2500u);
  EXPECT_LT(once.size(), 3500u);
  const auto other = sample_rdd(rdd, 0.3, 43).collect();
  EXPECT_NE(once, other);  // different seed, different sample
}

TEST(SparkTest, SampleExtremes) {
  SparkContext sc;
  auto rdd = sc.parallelize(std::vector<int>{1, 2, 3}, 2);
  EXPECT_TRUE(sample_rdd(rdd, 0.0, 1).collect().empty());
  EXPECT_EQ(sample_rdd(rdd, 1.1, 1).collect().size(), 3u);
}

TEST(SparkTest, RepartitionPreservesElements) {
  SparkContext sc;
  auto coarse = sc.parallelize(iota_vec(100), 2);
  auto fine = repartition(coarse, 25);
  EXPECT_EQ(fine.partitions(), 25u);
  auto out = fine.collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, iota_vec(100));
}

TEST(SparkTest, RepartitionIsAShuffle) {
  SparkContext sc;
  auto rdd = repartition(sc.parallelize(iota_vec(40), 4), 8);
  sc.metrics().reset();
  rdd.collect();
  EXPECT_EQ(sc.metrics().stages_executed.load(), 2u);
  EXPECT_EQ(sc.metrics().shuffle_records.load(), 40u);
}

TEST(SparkTest, RepartitionBalancesSkewedInput) {
  SparkContext sc;
  // All data initially in one partition; repartition spreads it evenly.
  auto skewed = sc.parallelize(iota_vec(64), 1);
  auto balanced = repartition(skewed, 8);
  auto sizes =
      balanced
          .map_partitions([](TaskContext&, std::vector<int>& xs) {
            return std::vector<std::size_t>{xs.size()};
          })
          .collect();
  for (std::size_t size : sizes) EXPECT_EQ(size, 8u);
}

TEST(SparkTest, JoinMatchesKeysAcrossSides) {
  SparkContext sc;
  std::vector<std::pair<int, std::string>> names = {
      {1, "ala"}, {2, "gly"}, {3, "ser"}};
  std::vector<std::pair<int, double>> masses = {{1, 71.0}, {3, 87.0},
                                                {4, 99.0}};
  auto out = join(sc.parallelize(std::move(names), 2),
                  sc.parallelize(std::move(masses), 2), 3)
                 .collect();
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  ASSERT_EQ(out.size(), 2u);  // keys 1 and 3 only
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[0].second.first, "ala");
  EXPECT_DOUBLE_EQ(out[0].second.second, 71.0);
  EXPECT_EQ(out[1].first, 3);
  EXPECT_EQ(out[1].second.first, "ser");
}

TEST(SparkTest, JoinProducesCrossProductPerKey) {
  SparkContext sc;
  std::vector<std::pair<int, int>> left = {{7, 1}, {7, 2}};
  std::vector<std::pair<int, int>> right = {{7, 10}, {7, 20}, {7, 30}};
  auto out = join(sc.parallelize(std::move(left), 1),
                  sc.parallelize(std::move(right), 1), 2)
                 .collect();
  EXPECT_EQ(out.size(), 6u);  // 2 x 3 combinations
}

TEST(SparkTest, JoinDisjointKeysIsEmpty) {
  SparkContext sc;
  std::vector<std::pair<int, int>> left = {{1, 1}};
  std::vector<std::pair<int, int>> right = {{2, 2}};
  EXPECT_TRUE(join(sc.parallelize(std::move(left), 1),
                   sc.parallelize(std::move(right), 1), 2)
                  .collect()
                  .empty());
}

struct Blob {
  std::vector<int> values;
  std::size_t byte_size() const noexcept {
    return values.size() * sizeof(int);
  }
};

TEST(SparkTest, ShuffleCountsByteSizeOrSizeof) {
  SparkContext sc;
  std::vector<Blob> blobs = {{{1, 2, 3}}, {{4}}, {{}}, {{5, 6}}};
  auto spread = repartition(sc.parallelize(blobs, 2), 3);
  sc.metrics().reset();
  spread.collect();
  EXPECT_EQ(sc.metrics().shuffle_bytes.load(), 6 * sizeof(int));

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
