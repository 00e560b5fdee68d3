# Benchmark targets — included from the top-level CMakeLists (not via
# add_subdirectory) so that build/bench/ holds ONLY the bench
# executables and `for b in build/bench/*; do $b; done` runs clean.

set(MDTASK_BENCH_DIR ${CMAKE_SOURCE_DIR}/bench)

function(mdtask_bench name)
  add_executable(${name} ${MDTASK_BENCH_DIR}/${name}.cpp)
  target_include_directories(${name} PRIVATE ${MDTASK_BENCH_DIR})
  target_link_libraries(${name} PRIVATE ${ARGN} mdtask_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mdtask_bench(bench_fig2_throughput_single mdtask_perf)
mdtask_bench(bench_fig3_throughput_nodes mdtask_perf)
mdtask_bench(bench_fig4_psa_wrangler mdtask_perf)
mdtask_bench(bench_fig5_psa_machines mdtask_perf)
mdtask_bench(bench_fig6_cpptraj mdtask_perf)
mdtask_bench(bench_fig7_leaflet mdtask_perf mdtask_stream)
mdtask_bench(bench_fig8_broadcast mdtask_perf)
mdtask_bench(bench_fig9_rp_leaflet mdtask_perf)
mdtask_bench(bench_tab1_properties mdtask_perf)
mdtask_bench(bench_tab2_shuffle_volumes mdtask_workflows)
mdtask_bench(bench_tab3_decision mdtask_perf mdtask_repex)
mdtask_bench(bench_ablations mdtask_workflows mdtask_cpptraj)
mdtask_bench(bench_pool mdtask_common)
mdtask_bench(bench_kernels mdtask_analysis mdtask_cpptraj)
target_link_libraries(bench_kernels PRIVATE benchmark::benchmark)
mdtask_bench(bench_future_work mdtask_perf)
mdtask_bench(bench_iterative_caching mdtask_analysis mdtask_engines)
mdtask_bench(bench_utilization mdtask_perf mdtask_autoscale)
mdtask_bench(bench_service mdtask_service)
mdtask_bench(bench_repex mdtask_repex)

# The end-to-end benchmark (bench/e2e): its binary lands in
# build/bench_e2e/, and ctest runs its --quick smoke and compare.py tests.
include(${MDTASK_BENCH_DIR}/e2e/bench_e2e.cmake)
# Watchdog on the two tests bench_e2e.cmake registers (the per-test
# limits of tests/CMakeLists.txt): the smoke took 19.5 s under CI's
# ASan+UBSan build, the compare.py tests 0.3 s.
set_tests_properties(bench_e2e_quick PROPERTIES TIMEOUT 300)
set_tests_properties(bench_e2e_compare_py PROPERTIES TIMEOUT 60)
