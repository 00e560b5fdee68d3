#include "mdtask/common/error.h"

#include <gtest/gtest.h>

namespace mdtask {
namespace {

TEST(ErrorTest, ToStringIncludesCodeAndMessage) {
  Error e(ErrorCode::kIoError, "disk on fire");
  EXPECT_EQ(e.to_string(), "kIoError: disk on fire");
}

TEST(ErrorTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(to_string(static_cast<ErrorCode>(c)), "kUnknown");
  }
}

TEST(ErrorTest, ReliabilityCodesAreDistinct) {
  // The serving path reports deadline misses separately from admission
  // sheds; the names are load-bearing for per-class SLO accounting in
  // bench_service.
  EXPECT_STREQ(to_string(ErrorCode::kDeadlineExceeded), "kDeadlineExceeded");
  EXPECT_NE(ErrorCode::kDeadlineExceeded, ErrorCode::kOverloaded);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Error(ErrorCode::kOutOfRange, "nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string(100, 'x');
  std::string s = std::move(r).value();
  EXPECT_EQ(s.size(), 100u);
}

TEST(StatusTest, DefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(Status::success().ok());
}

TEST(StatusTest, ErrorStatus) {
  Status s = Error(ErrorCode::kUnavailable, "db down");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kUnavailable);
}

TEST(TaskFailureContextTest, RendersAllFields) {
  const TaskFailureContext ctx{"dask", 17, 2, "worker-oom-kill"};
  EXPECT_EQ(ctx.to_string(),
            " [engine=dask task=17 attempt=2 fault=worker-oom-kill]");
}

TEST(TaskFailureContextTest, OmitsEmptyFaultKind) {
  const TaskFailureContext ctx{"rp", 3, 0, ""};
  EXPECT_EQ(ctx.to_string(), " [engine=rp task=3 attempt=0]");
}

TEST(TaskFailureContextTest, ErrorCarriesContext) {
  const Error err = Error(ErrorCode::kUnavailable, "unit lost")
                        .with_task({"mpi", 5, 1, "node-crash"});
  ASSERT_TRUE(err.task().has_value());
  EXPECT_EQ(err.task()->engine, "mpi");
  EXPECT_EQ(err.task()->task_id, 5u);
  EXPECT_EQ(err.task()->attempt, 1);
  EXPECT_EQ(err.task()->fault_kind, "node-crash");
  const std::string rendered = err.to_string();
  EXPECT_NE(rendered.find("unit lost"), std::string::npos);
  EXPECT_NE(rendered.find("engine=mpi task=5 attempt=1 fault=node-crash"),
            std::string::npos);
}

TEST(TaskFailureContextTest, LvalueBuilderAndAbsentContext) {
  Error err(ErrorCode::kInternal, "plain");
  EXPECT_FALSE(err.task().has_value());
  EXPECT_EQ(err.to_string().find("engine="), std::string::npos);
  err.with_task({"spark", 1, 0, "straggler"});
  ASSERT_TRUE(err.task().has_value());
  EXPECT_EQ(err.task()->engine, "spark");
}

}  // namespace
}  // namespace mdtask
