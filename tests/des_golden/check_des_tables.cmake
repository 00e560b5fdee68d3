# Golden check of the virtual-time DES tables: runs bench_future_work
# and bench_utilization in a work directory, once with default flags
# and once with `--adaptive --churn 3`, and compares every committed
# CSV stem under GOLDEN_DIR/<flag set>/ byte for byte with the fresh
# bench_results/ copy. Stems that depend on wall time or host
# calibration (future_speculation_live, utilization) are not committed,
# so they are not compared.
#
#   cmake -DFUTURE_WORK=<exe> -DUTILIZATION=<exe> -DGOLDEN_DIR=<dir>
#         -DWORK_DIR=<dir> -P check_des_tables.cmake
foreach(var FUTURE_WORK UTILIZATION GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_des_tables: -D${var}=... is required")
  endif()
endforeach()

set(failures "")
foreach(flag_set default adaptive_churn3)
  if(flag_set STREQUAL "adaptive_churn3")
    set(flags --adaptive --churn 3)
  else()
    set(flags "")
  endif()
  set(run_dir "${WORK_DIR}/${flag_set}")
  file(REMOVE_RECURSE "${run_dir}")
  file(MAKE_DIRECTORY "${run_dir}")
  foreach(bench "${FUTURE_WORK}" "${UTILIZATION}")
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
