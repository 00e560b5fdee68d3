# Build file of the end-to-end benchmark.
#
# bench/e2e/run.py configures the repository's own top-level project with
#   -DCMAKE_PROJECT_mdtask_INCLUDE=<this file>
# so bench_e2e links the mdtask libraries exactly as the repository builds
# them (same flags, same per-file options) without a change to any
# repository build file. CMake includes this file at the end of
# project(mdtask), before the library targets exist; the target names
# below resolve when the build system is generated.

add_executable(bench_e2e ${CMAKE_CURRENT_LIST_DIR}/bench_e2e.cpp)
set_target_properties(bench_e2e PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench_e2e)
target_link_libraries(bench_e2e PRIVATE
  mdtask_service mdtask_repex mdtask_warnings)

# `ctest` in this build runs the benchmark's own checks: the --quick smoke
# of all four workloads (metric names and units against BENCHMARK.json,
# no failed operation, loadable traces) and the compare.py unit tests.
enable_testing()
find_package(Python3 COMPONENTS Interpreter REQUIRED)
add_test(NAME bench_e2e_quick
  COMMAND ${Python3_EXECUTABLE} ${CMAKE_CURRENT_LIST_DIR}/smoke_test.py
          $<TARGET_FILE:bench_e2e> ${CMAKE_CURRENT_LIST_DIR}/../../BENCHMARK.json
          ${CMAKE_BINARY_DIR}/bench_e2e_smoke)
add_test(NAME bench_e2e_compare_py
  COMMAND ${Python3_EXECUTABLE} -m unittest discover
          -s ${CMAKE_CURRENT_LIST_DIR} -p "test_*.py")
