// Per-test temporary file paths for fixtures that write to disk.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace mdtask::testutil {

/// A temporary file path under ::testing::TempDir() unique to the
/// running test case and process: "<suite>.<name>.<pid>.<extension>".
/// ctest runs every discovered case as its own process, and `ctest -j`
/// runs them concurrently, so one fixed name per fixture would be
/// written by several cases at once. Call it while a test runs (a
/// fixture's member initializer or SetUp).
inline std::string unique_temp_path(const std::string& extension) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name();
  // Parameterized names contain '/', which cannot appear in a file name.
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + "." + extension;
}

}  // namespace mdtask::testutil
