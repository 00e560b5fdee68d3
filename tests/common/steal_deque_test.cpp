#include "mdtask/common/steal_deque.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace mdtask {
namespace {

TEST(StealQueueTest, OwnerPopsLifoThiefStealsFifo) {
  StealQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);  // owner: newest first
  ASSERT_TRUE(q.steal(v));
  EXPECT_EQ(v, 1);  // thief: oldest first
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));
  EXPECT_FALSE(q.steal(v));
}

TEST(StealQueueTest, StealBatchTakesOldestUpToMax) {
  StealQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.steal_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6u);
}

TEST(StealQueueTest, ConcurrentOwnerAndThievesLoseNothing) {
  StealQueue<int> q;
  constexpr int kItems = 20000;
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};
  auto thief = [&] {
    int v;
    while (!done.load() || !q.empty()) {
      if (q.steal(v)) taken.fetch_add(1);
    }
  };
  std::thread t1(thief), t2(thief);
  for (int i = 0; i < kItems; ++i) {
    q.push(i);
    int v;
    if (q.pop(v)) taken.fetch_add(1);
  }
  done.store(true);
  t1.join();
  t2.join();
  EXPECT_EQ(taken.load(), kItems);
  EXPECT_TRUE(q.empty());
}

TEST(StealQueueTest, QueuesArePaddedToDistinctCacheLines) {
  EXPECT_GE(alignof(StealQueue<int>), 64u);
}

}  // namespace
}  // namespace mdtask
