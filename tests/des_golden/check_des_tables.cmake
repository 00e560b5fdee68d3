# Golden check of the virtual-time DES tables: runs the DES benches in
# a work directory under three flag sets and compares every committed
# CSV stem under GOLDEN_DIR/<flag set>/ byte for byte with the fresh
# bench_results/ copy:
#
#   default          bench_future_work, bench_utilization, bench_service
#   adaptive_churn3  bench_future_work, bench_utilization (--adaptive --churn 3)
#   chaos            bench_service --chaos
#
# Stems that depend on wall time or host calibration
# (future_speculation_live, utilization) are not committed, so they are
# not compared.
#
#   cmake -DFUTURE_WORK=<exe> -DUTILIZATION=<exe> -DSERVICE=<exe>
#         -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P check_des_tables.cmake
foreach(var FUTURE_WORK UTILIZATION SERVICE GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_des_tables: -D${var}=... is required")
  endif()
endforeach()

set(failures "")
foreach(flag_set default adaptive_churn3 chaos)
  if(flag_set STREQUAL "adaptive_churn3")
    set(flags --adaptive --churn 3)
    set(benches "${FUTURE_WORK}" "${UTILIZATION}")
  elseif(flag_set STREQUAL "chaos")
    set(flags --chaos)
    set(benches "${SERVICE}")
  else()
    set(flags "")
    set(benches "${FUTURE_WORK}" "${UTILIZATION}" "${SERVICE}")
  endif()
  set(run_dir "${WORK_DIR}/${flag_set}")
  file(REMOVE_RECURSE "${run_dir}")
  file(MAKE_DIRECTORY "${run_dir}")
  foreach(bench IN LISTS benches)
    execute_process(COMMAND "${bench}" ${flags}
      WORKING_DIRECTORY "${run_dir}"
      RESULT_VARIABLE rc
      OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${bench} ${flags} exited with ${rc}")
    endif()
  endforeach()

  file(GLOB stems RELATIVE "${GOLDEN_DIR}/${flag_set}"
    "${GOLDEN_DIR}/${flag_set}/*.csv")
  if(NOT stems)
    message(FATAL_ERROR "no golden CSVs under ${GOLDEN_DIR}/${flag_set}")
  endif()
  foreach(stem IN LISTS stems)
    set(golden "${GOLDEN_DIR}/${flag_set}/${stem}")
    set(fresh "${run_dir}/bench_results/${stem}")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
      "${golden}" "${fresh}"
      RESULT_VARIABLE differs)
    if(differs)
      file(READ "${golden}" expected)
      if(EXISTS "${fresh}")
        file(READ "${fresh}" actual)
      else()
        set(actual "(missing)\n")
      endif()
      message("--- ${flag_set}/${stem} expected:\n${expected}"
              "--- ${flag_set}/${stem} actual:\n${actual}")
      list(APPEND failures "${flag_set}/${stem}")
    endif()
  endforeach()
endforeach()

if(failures)
  message(FATAL_ERROR "DES tables differ from the golden copies: ${failures}")
endif()
message(STATUS "DES tables match the golden copies")
