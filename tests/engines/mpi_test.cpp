#include "mdtask/engines/mpi/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace mdtask::mpi {
namespace {

TEST(SpmdTest, AllRanksRun) {
  std::atomic<int> ran{0};
  run_spmd(6, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 6);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 6);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 6);
}

TEST(SpmdTest, ZeroRanksThrows) {
  EXPECT_THROW(run_spmd(0, [](Communicator&) {}), std::invalid_argument);
}

TEST(SpmdTest, RankExceptionPropagates) {
  EXPECT_THROW(run_spmd(3,
                        [](Communicator& comm) {
                          if (comm.rank() == 1) {
                            throw std::runtime_error("rank 1 died");
                          }
                        }),
               std::runtime_error);
}

TEST(PointToPointTest, SendRecvRoundTrip) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> data = {1, 2, 3};
      comm.send<int>(1, 7, data);
    } else {
      EXPECT_EQ(comm.recv<int>(0, 7), (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(PointToPointTest, TagMatchingIsSelective) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> a = {1}, b = {2};
      comm.send<int>(1, 10, a);
      comm.send<int>(1, 20, b);
    } else {
      // Receive out of order: tag 20 first.
      EXPECT_EQ(comm.recv<int>(0, 20), (std::vector<int>{2}));
      EXPECT_EQ(comm.recv<int>(0, 10), (std::vector<int>{1}));
    }
  });
}

class BcastTest : public ::testing::TestWithParam<
                      std::tuple<int, BcastAlgorithm, int>> {};

TEST_P(BcastTest, AllRanksReceivePayload) {
  const auto [ranks, algo, root] = GetParam();
  if (root >= ranks) GTEST_SKIP();
  run_spmd(
      ranks,
      [&, root = root](Communicator& comm) {
        std::vector<double> data;
        if (comm.rank() == root) {
          data = {3.14, 2.71, 1.41, static_cast<double>(root)};
        }
        comm.bcast(data, root);
        ASSERT_EQ(data.size(), 4u);
        EXPECT_EQ(data[3], static_cast<double>(root));
      },
      algo);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BcastTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16),
                       ::testing::Values(BcastAlgorithm::kLinear,
                                         BcastAlgorithm::kBinomialTree),
                       ::testing::Values(0, 2)));

TEST(BcastTest, TreeUsesFewerRootSendsThanLinear) {
  auto root_sends = [](BcastAlgorithm algo) {
    auto report = run_spmd(
        16,
        [](Communicator& comm) {
          std::vector<int> data(100);
          comm.bcast(data, 0);
        },
        algo);
    return report.rank_stats[0].messages_sent;
  };
  // Linear: root sends to 15 peers; tree: root sends to log2(16) = 4.
  EXPECT_GT(root_sends(BcastAlgorithm::kLinear),
            2 * root_sends(BcastAlgorithm::kBinomialTree));
}

TEST(GatherTest, RootCollectsInRankOrder) {
  run_spmd(4, [](Communicator& comm) {
    std::vector<int> mine = {comm.rank() * 10, comm.rank() * 10 + 1};
    auto all = comm.gather<int>(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)],
                  (std::vector<int>{r * 10, r * 10 + 1}));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(GatherTest, VariableLengthContributions) {
  run_spmd(3, [](Communicator& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()),
                          comm.rank());
    auto all = comm.gather<int>(mine, 2);
    if (comm.rank() == 2) {
      EXPECT_TRUE(all[0].empty());
      EXPECT_EQ(all[1].size(), 1u);
      EXPECT_EQ(all[2].size(), 2u);
    }
  });
}

TEST(ReduceTest, ElementwiseSum) {
  run_spmd(5, [](Communicator& comm) {
    std::vector<int> mine = {comm.rank(), 1};
    auto total = comm.reduce(mine, 0, [](int a, int b) { return a + b; });
    if (comm.rank() == 0) {
      EXPECT_EQ(total, (std::vector<int>{0 + 1 + 2 + 3 + 4, 5}));
    } else {
      EXPECT_TRUE(total.empty());
    }
  });
}

TEST(AllreduceTest, EveryRankGetsTheResult) {
  run_spmd(4, [](Communicator& comm) {
    std::vector<double> mine = {static_cast<double>(comm.rank() + 1)};
    auto prod =
        comm.allreduce(mine, [](double a, double b) { return a * b; });
    ASSERT_EQ(prod.size(), 1u);
    EXPECT_DOUBLE_EQ(prod[0], 24.0);  // 1*2*3*4
  });
}

TEST(BarrierTest, RepeatedBarriersStayInLockstep) {
  std::atomic<int> phase_counter{0};
  run_spmd(4, [&](Communicator& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      phase_counter.fetch_add(1);
      comm.barrier();
      // After the barrier, all 4 increments of this phase are visible.
      EXPECT_GE(phase_counter.load(), 4 * (phase + 1));
      comm.barrier();
    }
  });
  EXPECT_EQ(phase_counter.load(), 40);
}

TEST(StatsTest, ReportAccountsTraffic) {
  auto report = run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::uint8_t> payload(1000, 1);
      comm.send_bytes(1, 0, payload);
    } else {
      comm.recv_bytes(0, 0);
    }
  });
  EXPECT_EQ(report.rank_stats[0].bytes_sent, 1000u);
  EXPECT_EQ(report.rank_stats[1].bytes_received, 1000u);
  EXPECT_EQ(report.total.messages_sent, 1u);
  EXPECT_EQ(report.total.bytes_sent, report.total.bytes_received);
}

TEST(StatsTest, LinearBcastBytesGrowWithRanks) {
  auto total_bytes = [](int ranks) {
    auto report = run_spmd(
        ranks,
        [](Communicator& comm) {
          std::vector<std::uint8_t> data(10000);
          comm.bcast(data, 0);
        },
        BcastAlgorithm::kLinear);
    return report.rank_stats[0].bytes_sent;
  };
  // Root send volume scales ~linearly with P (Fig. 8's MPI behaviour).
  EXPECT_GT(total_bytes(8), 3 * total_bytes(2));
}

TEST(AllgatherTest, EveryRankSeesAllContributions) {
  run_spmd(4, [](Communicator& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    auto all = comm.allgather<int>(mine);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r) + 1);
      for (int v : all[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
    }
  });
}

TEST(AllgatherTest, SingleRankIdentity) {
  run_spmd(1, [](Communicator& comm) {
    const std::vector<double> mine = {1.5, 2.5};
    auto all = comm.allgather<double>(mine);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0], mine);
  });
}

}  // namespace
}  // namespace mdtask::mpi
